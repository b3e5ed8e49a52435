"""Bidirectional-LSTM sequence labeling numerics, written against numpy.

Shapes follow one convention throughout.  For a length-n utterance with
input width D and hidden size H:

    inputs        X      (n, D)    rows are embedded tokens; (n, B, D),
                                   time-major, for B equal-length
                                   utterances run in lockstep
    gate weights  W^T    (D+H, 4H) fused i, f, o, g columns over [x_t, h_{t-1}]
    features              (n, 2H)  forward and backward states concatenated
    head weights  w      (C, 2H)   one softmax head per labeling task

Every parameter of a model lives in one contiguous float64 buffer (see
``ModelParams``), and so does every gradient ``loss_and_gradients``
returns.  Training forms no such gradient: ``sgd_step`` updates each block
in place from the backward pass's factors.  The training kernel keeps its
per-step states time-major, and its gates gate-major, in a workspace reused
across calls (``_Workspace``), so that each step reads and writes one
contiguous block per operand.  Everything is seeded.  The
LSTM cell is the standard one (no peepholes); dropout touches only the
non-recurrent connections, i.e. the embedded inputs and the features
feeding the heads, with inverted scaling so evaluation needs no
correction.  Losses are summed negative log probabilities over every
position and head; gradients come from full backpropagation through time.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


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
class SoftmaxHead:
    w: np.ndarray  # (C, 2H)
    b: np.ndarray  # (C,)
    labels: tuple[str, ...]


def _is_count(n) -> bool:
    """A non-negative int; a bool is not a count."""
    return type(n) is int and n >= 0


@dataclass(frozen=True)
class ShapeSpec:
    """Sizes needed to initialize a model, checked once when it is built.

    ``tables`` holds (rows, cols) per input channel; ``heads`` holds the
    label tuple of each softmax head; ``frozen_rows`` holds, per table, how
    many leading rows SGD leaves alone.  A shorter ``frozen_rows`` is padded
    with zeros, so that equal layouts compare and serialize equal.  Sizes
    that are not non-negative ints (a positive ``hidden``), more counts
    than tables, more frozen rows than a table has, and head labels that
    are not unique strings raise NeuralError.
    """

    tables: tuple[tuple[int, int], ...]
    hidden: int
    heads: tuple[tuple[str, ...], ...]
    frozen_rows: tuple[int, ...] = ()

    def __post_init__(self):
        tables = tuple(tuple(table) for table in self.tables)
        heads = tuple(tuple(labels) for labels in self.heads)
        frozen = tuple(self.frozen_rows)
        if len(frozen) > len(tables):
            raise NeuralError(f"{len(frozen)} frozen-row counts for {len(tables)} tables")
        frozen += (0,) * (len(tables) - len(frozen))
        if not (_is_count(self.hidden) and self.hidden > 0):
            raise NeuralError(f"hidden size {self.hidden!r} is not a positive int")
        for k, (table, n) in enumerate(zip(tables, frozen)):
            if len(table) != 2 or not all(map(_is_count, table)):
                raise NeuralError(f"table {k} is {table!r}, not two non-negative ints")
            if not (_is_count(n) and n <= table[0]):
                raise NeuralError(f"table {k} has {table[0]} rows, {n!r} frozen")
        for j, labels in enumerate(heads):
            if not all(isinstance(label, str) for label in labels):
                raise NeuralError(f"head {j} has a label that is not a string")
            if len(set(labels)) != len(labels):
                raise NeuralError(f"head {j} labels must be unique")
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "frozen_rows", frozen)

    def to_json(self) -> dict:
        """The shape as JSON-ready lists; ``from_json`` reads it back."""
        return {
            "tables": [list(table) for table in self.tables],
            "hidden": self.hidden,
            "heads": [list(labels) for labels in self.heads],
            "frozen_rows": list(self.frozen_rows),
        }

    @classmethod
    def from_json(cls, obj) -> "ShapeSpec":
        """The shape ``to_json`` wrote, or wrote with fewer ``frozen_rows``
        counts than tables; anything else raises NeuralError."""
        try:
            shape = cls(obj["tables"], obj["hidden"], obj["heads"], obj["frozen_rows"])
            frozen = obj["frozen_rows"] + [0] * (len(shape.tables) - len(obj["frozen_rows"]))
            valid = shape.to_json() == {**obj, "frozen_rows": frozen}
        except (KeyError, TypeError):
            valid = False
        if not valid:
            raise NeuralError("malformed shape: not what ShapeSpec.to_json writes")
        return shape


class _Layout(NamedTuple):
    """Where a shape's blocks lie in its flat buffer, derived once and
    shared by every ``ModelParams`` of the shape."""

    size: int
    tables: tuple[tuple[slice, tuple[int, int], int], ...]  # span, dims, frozen rows
    stacked: tuple[tuple[slice, tuple[int, ...]], ...]  # cells_w, cells_b, heads_w, heads_b
    head_rows: tuple[slice, ...]
    trainable: tuple[slice, ...]


def _layout(shape: ShapeSpec) -> _Layout:
    H = shape.hidden
    D = sum(cols for _, cols in shape.tables)
    C = sum(len(labels) for labels in shape.heads)
    pos = 0
    tables, frozen_spans = [], []
    for (rows, cols), frozen in zip(shape.tables, shape.frozen_rows):
        tables.append((slice(pos, pos + rows * cols), (rows, cols), frozen))
        frozen_spans += [pos, pos + frozen * cols]
        pos += rows * cols
    stacked = []
    for dims in ((2, D + H, 4 * H), (2, 4 * H), (C, 2 * H), (C,)):
        stacked.append((slice(pos, pos + math.prod(dims)), dims))
        pos += math.prod(dims)
    head_rows, row = [], 0
    for labels in shape.heads:
        head_rows.append(slice(row, row + len(labels)))
        row += len(labels)
    # SGD updates everything but each table's frozen prefix
    edges = [0] + frozen_spans + [pos]
    trainable = tuple(slice(a, b) for a, b in zip(edges[::2], edges[1::2]) if b > a)
    return _Layout(pos, tuple(tables), tuple(stacked), tuple(head_rows), trainable)


class ModelParams:
    """Embedding tables, the two LSTM directions and the softmax heads, as
    named views into one contiguous float64 buffer.

    The buffer holds, in order: each embedding table; both cells' gate
    weights side by side as ``cells_w`` (2, D+H, 4H), forward first, each
    as W^T, so W_x^T (``cells_w[d, :D]``) and W_h^T are contiguous; their
    biases ``cells_b`` (2, 4H); every head's weights stacked as ``heads_w``
    (C, 2H), C summed over the heads; their biases ``heads_b`` (C,).
    ``tables``, ``cells_w``, ``cells_b`` and ``heads`` are views of it, so
    a write through them, or through ``blocks()``, is a write to the
    buffer.  Gradients use the same layout (``zeros_like``).  A model that
    needs other shapes is a new ``ModelParams`` filled through its views
    (as ``models.adjust_nn_arch`` grows heads).  Copies share the layout,
    and ``heads`` is built on first use.  A pickle holds the shape and the
    buffer once.
    """

    def __init__(self, shape: ShapeSpec, buffer: np.ndarray | None = None):
        """Views over ``buffer``, or over a new zeroed buffer."""
        self._bind(shape, _layout(shape), buffer)

    def _bind(self, shape: ShapeSpec, layout: _Layout, buffer: np.ndarray | None) -> None:
        if buffer is None:
            buffer = np.zeros(layout.size)
        elif buffer.shape != (layout.size,):
            raise NeuralError(f"a buffer of shape {buffer.shape} for {layout.size} parameters")
        self.shape = shape
        self.hidden = shape.hidden
        self.buffer = buffer
        self._layout = layout
        self.tables = tuple([
            EmbeddingTable(buffer[span].reshape(dims), frozen)
            for span, dims, frozen in layout.tables
        ])
        self.cells_w, self.cells_b, self.heads_w, self.heads_b = [
            buffer[span].reshape(dims) for span, dims in layout.stacked
        ]
        # each head's rows in heads_w and heads_b
        self.head_rows = layout.head_rows
        self.trainable = layout.trainable

    def _over(self, buffer: np.ndarray) -> "ModelParams":
        """The same layout over another buffer."""
        out = ModelParams.__new__(ModelParams)
        out._bind(self.shape, self._layout, buffer)
        return out

    def __reduce__(self):
        return ModelParams, (self.shape, self.buffer)

    @functools.cached_property
    def heads(self) -> tuple[SoftmaxHead, ...]:
        return tuple(
            SoftmaxHead(self.heads_w[rows], self.heads_b[rows], labels)
            for rows, labels in zip(self.head_rows, self.shape.heads)
        )

    @property
    def input_dim(self) -> int:
        return sum(t.cols for t in self.tables)

    def copy(self) -> "ModelParams":
        return self._over(self.buffer.copy())

    def zeros_like(self) -> "ModelParams":
        return self._over(np.zeros(self.buffer.size))

    def blocks(self):
        """Named parameter arrays in the order ``init_params`` draws them:
        each table, ``fwd.w``, ``fwd.b``, ``bwd.w``, ``bwd.b``, then each
        head's weights and biases.  That is not buffer order, which stacks
        both cells' weights before their biases and every head's weights
        before theirs.  Each is a contiguous view of the buffer."""
        for k, table in enumerate(self.tables):
            yield f"table{k}", table.weights
        for d, direction in enumerate(("fwd", "bwd")):
            yield f"{direction}.w", self.cells_w[d]
            yield f"{direction}.b", self.cells_b[d]
        for j, head in enumerate(self.heads):
            yield f"head{j}.w", head.w
            yield f"head{j}.b", head.b


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
        if not (math.isfinite(self.init_range) and self.init_range > 0):
            raise ValueError(
                f"init_range must be finite and positive, got {self.init_range}"
            )
        if self.emb_dim < 1 or self.hidden < 1 or self.concept_emb_dim < 1:
            raise ValueError("model dimensions must be positive")
        if not self.grid():
            raise ValueError("learning-rate grid is empty")
        if not all(math.isfinite(lr) and lr > 0 for lr in self.grid()):
            raise ValueError("learning rates must be finite and positive")

    def grid(self) -> tuple[float, ...]:
        if self.learning_rate is not None:
            return (float(self.learning_rate),)
        return tuple(self.lr_grid)


def draw_uniform(blocks, rng: np.random.Generator, init_range: float) -> None:
    """Fill each ``(name, block)`` pair in order with i.i.d. uniform(-init_range,
    init_range) draws; ``fwd.w`` and ``bwd.w``, stored as W^T, are drawn as W
    (4H, D+H), so the values do not depend on how the cells are stored."""
    for name, block in blocks:
        target = block.T if name in ("fwd.w", "bwd.w") else block
        target[...] = rng.uniform(-init_range, init_range, size=target.shape)


def init_params(
    shape: ShapeSpec, rng: np.random.Generator | int, init_range: float = 0.2
) -> ModelParams:
    """Draw every parameter i.i.d. uniform(-init_range, init_range), block
    by block in ``blocks()`` order (see ``draw_uniform``)."""
    if not isinstance(rng, np.random.Generator):
        rng = rng_stream(int(rng))
    params = ModelParams(shape)
    draw_uniform(params.blocks(), rng, init_range)
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

class _Workspace:
    """The training kernel's step buffers for B rows at hidden size H, and
    every step's views of them, built once.  The buffers are time-major, so
    that each step reads and writes contiguous blocks.

    Forward: ``gates`` (N, 4, 2, B, H), gate-major in the order i, f, o, g,
    holds the input projection, then the pre-activations, then the gates;
    ``c`` and ``h`` (N + 1, 2, B, H) hold the cell and hidden states, whose
    row 0 stays zero; ``tc`` (N, 2, B, H) holds tanh(c).  Backward:
    ``dh_out`` (N, 2, B, H) holds each state's loss gradient; ``dc_of_dh``
    (N, 2, B, H) and ``factors`` (N, 2, B, 4, H) the parts of dz that do not
    depend on the gradients carried back; ``dz`` (N, 2, B, 4H) the gate
    pre-activation gradients.  N is the ``capacity`` in steps.
    """

    def __init__(self, H: int, B: int, capacity: int):
        N = self.capacity = capacity
        self.gates = np.empty((N, 4, 2, B, H))
        self.c = np.zeros((N + 1, 2, B, H))
        self.tc = np.empty((N, 2, B, H))
        self.h = np.zeros((N + 1, 2, B, H))
        self.rec = np.empty((2, B, 4 * H))
        # the recurrent product's gate-major view
        self.rec_gates = self.rec.reshape(2, B, 4, H).transpose(2, 0, 1, 3)
        self.dh_out = np.empty((N, 2, B, H))
        self.dc_of_dh = np.empty((N, 2, B, H))
        self.factors = np.empty((N, 2, B, 4, H))
        self.dz = np.empty((N, 2, B, 4 * H))
        # dh and dc of the current step, and the two carried from the next
        self.dh, self.dc, self.dh_next, self.dc_next = np.empty((4, 2, B, H))
        self.dc_gates = self.dc[:, :, None]  # broadcast over the four gates
        c, h, gates, factors = self.c, self.h, self.gates, self.factors
        self.forward_steps = [
            (h[t], z, (z, z[:3], *z), c[t], c[t + 1], self.tc[t], h[t + 1])
            for t, z in enumerate(gates)
        ]
        dz = self.dz.reshape(N, 2, B, 4, H)
        # last step first, so that an n-step sequence takes the last n
        self.backward_steps = [
            (self.dh_out[t], self.dc_of_dh[t], factors[t], factors[t, :, :, 2],
             dz[t], dz[t, :, :, 2], self.dz[t], gates[t, 1])
            for t in reversed(range(N))
        ]


# one workspace per (hidden, rows), grown to the longest sequence; the
# kernel is not safe across threads
_WORKSPACES: dict[tuple[int, int], _Workspace] = {}


def _workspace(H: int, B: int, n: int) -> _Workspace:
    work = _WORKSPACES.get((H, B))
    if work is None or work.capacity < n:
        work = _WORKSPACES[H, B] = _Workspace(H, B, max(n, 16))
    return work


@dataclass
class _Cache:
    """Both directions' states over B equal-length sequences, time-major.
    Direction 0 runs forward; direction 1 runs in reversed time, so its
    step t reads input n - 1 - t.  Every array but ``xs`` is a view of
    ``work``, valid until the next ``_run_cells`` of the same H and B."""

    xs: np.ndarray     # (2, n, B, D) inputs, each direction in its own time
    gates: np.ndarray  # (n, 4, 2, B, H) i, f, o after the sigmoid, g after tanh
    c: np.ndarray      # (n + 1, 2, B, H) cell states, c[0] = 0
    tc: np.ndarray     # (n, 2, B, H) tanh(c[t + 1])
    h: np.ndarray      # (n + 1, 2, B, H) hidden states, h[0] = 0
    work: _Workspace

    def features(self) -> np.ndarray:
        """(n, B, 2H): both directions' states at each input position."""
        return np.concatenate([self.h[1:, 0], self.h[:0:-1, 1]], axis=2)


def _cell_update(gates: tuple, c_prev, c, tc, h) -> None:
    """One LSTM step after the products.  ``gates`` holds views of the
    pre-activations, the sigmoid gates' already halved: all of them, the
    three sigmoid gates, then i, f, o and g.  In place, i, f, o become
    sigmoids and g a tanh; then the new cell state goes to ``c`` (which may
    be ``c_prev``), its tanh to ``tc``, and the new hidden state to ``h``."""
    z, sig, i, f, o, g = gates
    # sigmoid(x) = (1 + tanh(x / 2)) / 2, so one tanh covers all four gates
    np.tanh(z, out=z)
    sig *= 0.5
    sig += 0.5
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def _run_cells(params: ModelParams, xs: np.ndarray) -> _Cache:
    """Run both LSTM directions over ``B`` equal-length sequences in lockstep,
    keeping every step's states for backpropagation.

    ``xs`` is (n, B, D), time-major.  One batched product projects every
    timestep for both directions before the loop, so only the stacked
    recurrent product ``h @ W_h^T`` stays inside it, and each step updates
    both directions with one call per operation, on the workspace's
    contiguous step blocks.
    """
    n, B, D = xs.shape
    H = params.hidden
    work = _workspace(H, B, n)
    both = np.empty((2, n, B, D))
    both[0] = xs
    both[1] = xs[::-1]
    proj = both.reshape(2, n * B, D) @ params.cells_w[:, :D]
    proj += params.cells_b[:, None]
    # the projection turns into the gate activations, step by step
    gates = work.gates[:n]
    gates[...] = proj.reshape(2, n, B, 4, H).transpose(1, 3, 0, 2, 4)
    w_h = params.cells_w[:, D:]
    rec, rec_gates = work.rec, work.rec_gates
    for h_prev, z, views, c_prev, c, tc, h in work.forward_steps[:n]:
        np.matmul(h_prev, w_h, out=rec)
        z += rec_gates
        # halve the sigmoid gates, for _cell_update's one tanh
        np.multiply(views[1], 0.5, out=views[1])
        _cell_update(views, c_prev, c, tc, h)
    return _Cache(both, gates, work.c[:n + 1], work.tc[:n], work.h[:n + 1], work)


def _features(table: np.ndarray, idx: np.ndarray, w_h: np.ndarray) -> np.ndarray:
    """The (B, n, 2H) features of ``B`` equal-length sequences, keeping no
    per-step state: the inference twin of ``_run_cells``.

    ``table`` (2U, 4H) holds projected input rows and ``idx`` (n, 2, B) the
    row each direction reads at each of its steps, direction 1 in its own
    reversed time; ``w_h`` (2, H, 4H) is W_h^T.  Table and ``w_h`` come with
    the sigmoid gates' columns halved (see ``_projection_table``), so
    ``table[k] + h @ w_h`` equals, bit for bit, the halved pre-activation
    of ``_run_cells``: scaling by 0.5 is exact.  States go to a time-major
    buffer, and the features are built from it once.
    """
    n, _, B = idx.shape
    H = w_h.shape[1]
    hs = np.zeros((n + 1, 2, B, H))
    c = np.zeros((2, B, H))
    tc = np.empty((2, B, H))
    z = np.empty((2, B, 4 * H))
    rec = np.empty((2, B, 4 * H))
    gates = (z, z[..., :3 * H], *np.split(z, 4, axis=2))
    for t in range(n):
        np.matmul(hs[t], w_h, out=rec)
        # the indices are in range by construction; "clip" takes them unbuffered
        np.take(table, idx[t], axis=0, out=z, mode="clip")
        z += rec
        _cell_update(gates, c, c, tc, hs[t + 1])
    out = np.empty((B, n, 2 * H))
    out[..., :H] = hs[1:, 0].swapaxes(0, 1)
    out[..., H:] = hs[:0:-1, 1].swapaxes(0, 1)
    return out


def _normalize_ids(params: ModelParams, ids) -> tuple[np.ndarray, ...]:
    """One int64 id array per embedding table, all of one length; anything
    else raises NeuralError.  ``_check_rows`` checks the ids themselves."""
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


def _check_rows(params: ModelParams, seqs) -> None:
    """Each id of ``seqs`` (one int64 array per table) is a row of its
    table; a negative id would otherwise read a row from the end."""
    for k, (table, ids) in enumerate(zip(params.tables, seqs)):
        # as unsigned, a negative id is larger than any row count
        if len(ids) and ids.view(np.uint64).max() >= table.rows:
            bad = ids[(ids < 0) | (ids >= table.rows)][0]
            raise NeuralError(f"id {bad} is not a row of table {k}, which has {table.rows}")


def blstm_forward(params: ModelParams, ids) -> np.ndarray:
    """Per-position features, (n, 2H): forward and backward states
    concatenated, dropout off."""
    for _, features in blstm_forward_batch(params, [ids]):
        return features[0]
    return np.empty((0, 2 * params.hidden))


# Sentences per lockstep group.  A group's state buffer and features, and
# with them peak memory, grow with its size.  One pass over 1000 sentences
# of up to 14 tokens at H=100 (2 vCPUs) took 84-86, 81-82, 80-84 and
# 77-80 ms at caps of 16, 24, 48 and 96, and 98-109 ms at 8, with
# bit-identical features.
GROUP_CAP = 24


def _projection_table(params: ModelParams, seqs) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct input row of ``seqs`` (one id per table) projected
    once, and which row each position reads.

    Returns the table (2U, 4H), direction 0's U rows then direction 1's,
    each ``x W_x^T + b`` with the sigmoid gates' columns halved, and the
    row of every position of ``seqs`` in order, in [0, U).
    """
    columns = [np.concatenate([seq[k] for seq in seqs]) for k in range(len(params.tables))]
    _check_rows(params, columns)
    # a mixed-radix key per position, renumbered after each table so that
    # it stays below positions x rows and cannot overflow
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for table, col in zip(params.tables, columns):
        _, first, key = np.unique(key * table.rows + col, return_index=True, return_inverse=True)
    U = len(first)
    # numpy multiplies a single row by another BLAS routine, whose sums can
    # differ in the last bit from the matrix product of the training kernel
    first = np.resize(first, max(U, 2))
    rows = np.concatenate(
        [table.weights[col[first]] for table, col in zip(params.tables, columns)], axis=1
    )
    H = params.hidden
    proj = rows @ params.cells_w[:, :params.input_dim]
    proj += params.cells_b[:, None]
    proj[..., :3 * H] *= 0.5
    return proj[:, :U].reshape(2 * U, 4 * H), key


def blstm_forward_batch(params: ModelParams, items: Sequence):
    """Features of many id sequences, dropout off, run in equal-length groups.

    ``items`` holds one id array, or one tuple of arrays, per sequence.
    Every distinct input row of the call is projected once
    (``_projection_table``).  Sequences are grouped by length and each
    group of at most ``GROUP_CAP`` runs through both directions in lockstep
    (``_features``).  Yields ``(indices, features)`` per group in order of
    increasing length, where ``indices`` are positions in ``items`` and
    ``features`` is a contiguous (len(indices), n, 2H) array.  Empty
    sequences yield nothing.
    """
    seqs = [_normalize_ids(params, ids) for ids in items]
    by_length: dict[int, list[int]] = {}
    for k, seq in enumerate(seqs):
        if len(seq[0]):
            by_length.setdefault(len(seq[0]), []).append(k)
    if not by_length:
        return
    table, row_of = _projection_table(params, seqs)
    U = len(table) // 2
    starts = np.cumsum([0] + [len(seq[0]) for seq in seqs])
    H, D = params.hidden, params.input_dim
    w_h = params.cells_w[:, D:].copy()
    w_h[..., :3 * H] *= 0.5
    for n in sorted(by_length):
        members = by_length[n]
        for start in range(0, len(members), GROUP_CAP):
            group = np.array(members[start:start + GROUP_CAP])
            rows = row_of[starts[group][None] + np.arange(n)[:, None]]  # (n, B)
            idx = np.stack([rows, rows[::-1] + U], axis=1)
            yield group, _features(table, idx, w_h)


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
    params: ModelParams, cache: _Cache, dfeats: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagation through time for both directions at once.

    ``dfeats`` (n, B, 2H) is the loss gradient of ``cache.features()``.
    Returns the gate pre-activation gradients ``dz`` (2, n * B, 4H) and the
    cell inputs ``xh`` = [x_t, h_{t-1}] (2, n * B, D + H) they pair with, in
    each direction's own time, so that dW^T = xh^T dz and db = sum(dz); and
    the input gradient dx (n, B, D) in forward time.  None of them shares
    memory with the workspace.
    """
    n, _, B, H = cache.tc.shape
    D = cache.xs.shape[3]
    work = cache.work
    work.dh_out[:n, 0] = dfeats[..., :H]
    work.dh_out[:n, 1] = dfeats[::-1, :, H:]
    i, f, o, g = cache.gates.swapaxes(0, 1)
    tc = cache.tc
    # everything that does not depend on the carried dh and dc, for all steps
    np.multiply(o, 1.0 - tc * tc, out=work.dc_of_dh[:n])
    factors = work.factors[:n]
    factors[..., 0, :] = g * i * (1.0 - i)
    factors[..., 1, :] = cache.c[:-1] * f * (1.0 - f)
    factors[..., 2, :] = tc * o * (1.0 - o)
    factors[..., 3, :] = i * (1.0 - g * g)
    w_h = params.cells_w[:, D:].transpose(0, 2, 1)
    dh, dc, dh_next, dc_next = work.dh, work.dc, work.dh_next, work.dc_next
    dh_next[...] = 0.0
    dc_next[...] = 0.0
    for dh_out_t, dc_of_dh_t, factors_t, factors_o_t, dz_t, dz_o_t, dz_rows_t, f_t in (
        work.backward_steps[work.capacity - n:]
    ):
        np.add(dh_out_t, dh_next, out=dh)
        np.multiply(dh, dc_of_dh_t, out=dc)
        dc += dc_next
        np.multiply(factors_t, work.dc_gates, out=dz_t)
        np.multiply(factors_o_t, dh, out=dz_o_t)
        np.matmul(dz_rows_t, w_h, out=dh_next)
        np.multiply(dc, f_t, out=dc_next)
    dz = work.dz[:n].swapaxes(0, 1).copy().reshape(2, n * B, 4 * H)
    xh = np.concatenate([cache.xs, cache.h[:-1].swapaxes(0, 1)], axis=3)
    dx = (dz @ params.cells_w[:, :D].transpose(0, 2, 1)).reshape(2, n, B, D)
    return dz, xh.reshape(2, n * B, D + H), dx[0] + dx[1, ::-1]


def _joined(parts: list, axis: int = 0) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _check_gold(gold: np.ndarray, classes: int, where: str) -> None:
    """Each id of ``gold`` (int64) is a class of its head; a negative id
    would otherwise train the head's last class."""
    # as unsigned, a negative id is larger than any class count
    if len(gold) and gold.view(np.uint64).max() >= classes:
        bad = gold[(gold < 0) | (gold >= classes)][0]
        raise NeuralError(f"{where}: label id {bad} is not one of its {classes} classes")


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
            _check_gold(gold, logp.shape[1], f"head {j}")
            total -= float(logp[rows, gold].sum())
    return total


class _Factors(NamedTuple):
    """One item's forward and backward pass: every gradient block is a
    product or a sum of these.  ``heads_w`` takes dlogits^T head_input and
    ``heads_b`` the sum of dlogits; ``cells_w[d]`` takes xh[d]^T dz[d] and
    ``cells_b`` the sum of dz; each table adds its columns of dx at its ids.
    """

    gold_logp: list[float]  # per head, the summed log-probability of the gold labels
    dlogits: np.ndarray     # (n, C)
    head_input: np.ndarray  # (n, 2H)
    dz: np.ndarray          # (2, n, 4H), each direction in its own time
    xh: np.ndarray          # (2, n, D + H)
    dx: np.ndarray          # (n, D)
    ids: tuple[np.ndarray, ...]


def _item_factors(
    params: ModelParams, b: int, item: tuple, masks: DropoutMasks | None
) -> _Factors | None:
    """Batch item ``b`` (token ids and one gold id array per head) forward
    and back, or None when it has no tokens.  Ids outside their table or
    head, and labels that do not match the heads or the length, raise
    NeuralError."""
    ids, labels = item
    seqs = _normalize_ids(params, ids)
    _check_rows(params, seqs)
    n = len(seqs[0])
    if n == 0:
        return None
    if len(labels) != len(params.heads):
        raise NeuralError(
            f"batch item {b}: {len(labels)} label sequences for {len(params.heads)} heads"
        )
    xs = np.concatenate(
        [table.weights[seq] for table, seq in zip(params.tables, seqs)], axis=1
    )
    if masks is not None:
        xs = xs * masks.input
    cells = _run_cells(params, xs[:, None])
    head_input = cells.features()[:, 0]
    if masks is not None:
        head_input = head_input * masks.features
    rows = np.arange(n)
    # every head's logits come from one product over the stacked heads
    dlogits = head_input @ params.heads_w.T + params.heads_b
    gold_logp = []
    for j, gold in enumerate(labels):
        gold = np.asarray(gold, dtype=np.int64)
        if len(gold) != n:
            raise NeuralError(
                f"batch item {b}, head {j}: {len(gold)} labels for {n} positions"
            )
        segment = dlogits[:, params.head_rows[j]]
        _check_gold(gold, segment.shape[1], f"batch item {b}, head {j}")
        logp = log_softmax(segment)
        gold_logp.append(float(logp[rows, gold].sum()))
        np.exp(logp, out=segment)
        segment[rows, gold] -= 1.0
    dfeats = dlogits @ params.heads_w
    if masks is not None:
        dfeats *= masks.features
    dz, xh, dx = _backprop_cells(params, cells, dfeats[:, None])
    dx = dx[:, 0]
    if masks is not None:
        dx *= masks.input
    return _Factors(gold_logp, dlogits, head_input, dz, xh, dx, seqs)


def _gradients(params: ModelParams, factors: list[_Factors]) -> ModelParams:
    """The items' summed gradients in the parameters' layout, over one new
    buffer; every weight gradient is one product over all their positions."""
    grads = params.zeros_like()
    if not factors:
        return grads
    dlogits = _joined([f.dlogits for f in factors])
    dz = _joined([f.dz for f in factors], axis=1)
    dx = _joined([f.dx for f in factors])
    np.matmul(dlogits.T, _joined([f.head_input for f in factors]), out=grads.heads_w)
    np.sum(dlogits, axis=0, out=grads.heads_b)
    xh = _joined([f.xh for f in factors], axis=1)
    np.matmul(xh.transpose(0, 2, 1), dz, out=grads.cells_w)
    np.sum(dz, axis=1, out=grads.cells_b)
    offset = 0
    for k, table in enumerate(grads.tables):
        ids = _joined([f.ids[k] for f in factors])
        np.add.at(table.weights, ids, dx[:, offset:offset + table.cols])
        offset += table.cols
    return grads


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

    Each item runs forward and back on its own (``_item_factors``, as in
    ``sgd_step``); every weight gradient is then one product over the
    positions of the whole batch.
    """
    total = 0.0
    factors = []
    for b, item in enumerate(batch):
        f = _item_factors(params, b, item, masks[b] if masks is not None else None)
        if f is not None:
            for logp in f.gold_logp:
                total -= logp
            factors.append(f)
    return total, _gradients(params, factors)


# bytes of ``cells_w`` updated per product in ``sgd_step``: the chunk's
# product and the rows it updates stay in L2, and the product stays under
# glibc's 128 KiB mmap threshold, so it is not mapped afresh every step
_CHUNK_BYTES = 100_000
# a bound on |xh^T dz| at or below this leaves room for the rounding of
# its sums, so the product it bounds is finite
_PRODUCT_BOUND = np.finfo(np.float64).max / 4


def _row_chunks(w: np.ndarray) -> list[slice]:
    """Row chunks of ``w`` (one cell's W^T) of at most ``_CHUNK_BYTES``,
    the last one widened rather than left with a single row: numpy
    multiplies a single row by another BLAS routine, whose sums can differ
    in the last bit from the whole product's."""
    step = max(2, _CHUNK_BYTES // w[0].nbytes)
    edges = [*range(0, max(len(w) - 1, 1), step), len(w)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _raise_if_nonfinite(grads: ModelParams) -> None:
    """NonFiniteGradient naming the first block of ``grads`` that holds a
    NaN or an infinity where SGD would write it: frozen rows do not count."""
    frozen = {f"table{k}": t.frozen_rows for k, t in enumerate(grads.tables)}
    for name, block in grads.blocks():
        if not np.isfinite(block[frozen.get(name, 0):]).all():
            raise NonFiniteGradient(f"non-finite gradient in block {name}")


def sgd_step(
    params: ModelParams, item: tuple, masks: DropoutMasks | None, learning_rate: float
) -> float:
    """One SGD step on one batch item, in place; returns the item's loss.

    The item runs forward and back as in ``loss_and_gradients``, and each
    block is then updated from the backward pass's factors, so no
    gradient as large as the parameters is formed.  The cells' weights
    are updated a few rows at a time (``_row_chunks``),
    ``W^T[rows] -= lr * (xh^T[rows] @ dz)``, so that each chunk's product
    and the rows it updates stay in cache; the biases and heads take their
    small products whole, and each table a dense gradient over its
    trainable rows (frozen rows are never written).  Every value equals,
    bit for bit, ``loss_and_gradients`` followed by ``p -= lr * g``.

    Nothing is written unless every gradient entry is finite.  The cells'
    weight gradient is not formed for that: each of its entries is a sum
    of n products, so n max|xh| max|dz| bounds it; the other blocks are
    proved finite by finite sums.  Only when a bound or a sum fails is the
    whole gradient formed and checked entry by entry, so a finite gradient
    whose sums overflow is still applied.  A non-finite one raises
    NonFiniteGradient naming its first such block and leaves every
    parameter as it was.
    """
    f = _item_factors(params, 0, item, masks)
    if f is None:
        return 0.0
    loss = 0.0
    for logp in f.gold_logp:
        loss -= logp
    heads_w = f.dlogits.T @ f.head_input
    heads_b = f.dlogits.sum(axis=0)
    cells_b = f.dz.sum(axis=1)
    tables, offset = [], 0
    for table, ids in zip(params.tables, f.ids):
        dx = f.dx[:, offset:offset + table.cols]
        offset += table.cols
        if table.frozen_rows:
            live = ids >= table.frozen_rows
            ids, dx = ids[live] - table.frozen_rows, dx[live]
        grad = np.zeros((table.rows - table.frozen_rows, table.cols))
        np.add.at(grad, ids, dx)
        tables.append(grad)
    bound = f.dz.shape[1] * np.abs(f.xh).max() * np.abs(f.dz).max()
    if not (bound <= _PRODUCT_BOUND
            and all(np.isfinite(g.sum()) for g in (*tables, cells_b, heads_w, heads_b))):
        _raise_if_nonfinite(_gradients(params, [f]))
    for table, grad in zip(params.tables, tables):
        table.weights[table.frozen_rows:] -= learning_rate * grad
    for d, w in enumerate(params.cells_w):
        xh_t = f.xh[d].T
        for rows in _row_chunks(w):
            step = xh_t[rows] @ f.dz[d]
            step *= learning_rate
            w[rows] -= step
    params.cells_b -= learning_rate * cells_b
    params.heads_w -= learning_rate * heads_w
    params.heads_b -= learning_rate * heads_b
    return loss


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
# parameter files: the flat buffer as one .npy array (NumPy's NEP 1 format)

def _check_finite(buffer: np.ndarray) -> None:
    if not np.isfinite(buffer).all():
        raise NeuralError("holds non-finite parameters")


def save_params(params: ModelParams, fh) -> None:
    """Write the parameter buffer to the writable binary file ``fh``, as
    ``np.save`` would: one ``write`` of the ``.npy`` header, then one of the
    buffer's own memory, not a copy of it.  Its ``ShapeSpec`` is stored
    separately (see ``ShapeSpec.to_json``).  A buffer that ``load_params``
    would refuse, one holding a NaN or an infinity, raises NeuralError
    before anything is written."""
    _check_finite(params.buffer)
    np.lib.format.write_array_header_1_0(
        fh, np.lib.format.header_data_from_array_1_0(params.buffer)
    )
    fh.write(params.buffer.data)


def load_params(path, shape: ShapeSpec, data: bytes | None = None) -> ModelParams:
    """Read a buffer written by ``save_params`` as parameters of ``shape``.
    ``data``, when given, is the file's content already read, and ``path``
    is not opened.

    A file that is not one 1-D float64 array of ``shape``'s size, or that
    holds a NaN or an infinity, raises NeuralError.  Its message does not
    name the file; the caller does (see ``models.load_model``).
    """
    try:
        buffer = np.load(io.BytesIO(data) if data is not None else path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise NeuralError(f"not a parameter array ({exc})") from None
    if not isinstance(buffer, np.ndarray) or buffer.dtype != np.float64 or buffer.ndim != 1:
        raise NeuralError("not a 1-D float64 array")
    _check_finite(buffer)
    return ModelParams(shape, buffer)

"""Bidirectional-LSTM sequence labeling numerics, written against numpy.

Shapes follow one convention throughout.  For a length-n utterance with
input width D and hidden size H:

    inputs        X      (n, D)    rows are embedded tokens; (B, n, D) for
                                   B equal-length utterances run in lockstep
    gate weights  w      (4H, D+H) fused i, f, o, g blocks over [x_t, h_{t-1}]
    features              (n, 2H)  forward and backward states concatenated
    head weights  w      (C, 2H)   one softmax head per labeling task

Everything is float64 and seeded.  The LSTM cell is the standard one
(no peepholes); dropout touches only the non-recurrent connections, i.e.
the embedded inputs and the features feeding the heads, with inverted
scaling so evaluation needs no correction.  Losses are summed negative
log probabilities over every position and head; gradients come from full
backpropagation through time.
"""

from __future__ import annotations

import json
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


@dataclass
class ModelParams:
    """Embedding tables, the two LSTM directions, and the softmax heads."""

    tables: tuple[EmbeddingTable, ...]
    fwd: LstmCellParams
    bwd: LstmCellParams
    heads: tuple[SoftmaxHead, ...]
    hidden: int

    @property
    def input_dim(self) -> int:
        return sum(t.cols for t in self.tables)

    def copy(self) -> "ModelParams":
        return ModelParams(
            tables=tuple(
                EmbeddingTable(t.weights.copy(), t.frozen_rows) for t in self.tables
            ),
            fwd=LstmCellParams(self.fwd.w.copy(), self.fwd.b.copy()),
            bwd=LstmCellParams(self.bwd.w.copy(), self.bwd.b.copy()),
            heads=tuple(SoftmaxHead(h.w.copy(), h.b.copy(), h.labels) for h in self.heads),
            hidden=self.hidden,
        )

    def blocks(self):
        """Named parameter arrays in canonical order."""
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
        return sum(arr.size for _, arr in self.blocks())


@dataclass
class Gradients:
    tables: list[np.ndarray]
    fwd_w: np.ndarray
    fwd_b: np.ndarray
    bwd_w: np.ndarray
    bwd_b: np.ndarray
    heads: list[tuple[np.ndarray, np.ndarray]]

    def blocks(self):
        for k, g in enumerate(self.tables):
            yield f"table{k}", g
        yield "fwd.w", self.fwd_w
        yield "fwd.b", self.fwd_b
        yield "bwd.w", self.bwd_w
        yield "bwd.b", self.bwd_b
        for j, (gw, gb) in enumerate(self.heads):
            yield f"head{j}.w", gw
            yield f"head{j}.b", gb


def zero_gradients(params: ModelParams) -> Gradients:
    return Gradients(
        tables=[np.zeros_like(t.weights) for t in params.tables],
        fwd_w=np.zeros_like(params.fwd.w),
        fwd_b=np.zeros_like(params.fwd.b),
        bwd_w=np.zeros_like(params.bwd.w),
        bwd_b=np.zeros_like(params.bwd.b),
        heads=[(np.zeros_like(h.w), np.zeros_like(h.b)) for h in params.heads],
    )


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
    """Draw every parameter i.i.d. uniform(-init_range, init_range)."""
    if not isinstance(rng, np.random.Generator):
        rng = rng_stream(int(rng))
    H = shape.hidden

    def draw(*dims):
        return rng.uniform(-init_range, init_range, size=dims)

    tables = tuple(
        EmbeddingTable(draw(rows, cols), shape.table_frozen(k))
        for k, (rows, cols) in enumerate(shape.tables)
    )
    D = sum(cols for _, cols in shape.tables)
    fwd = LstmCellParams(draw(4 * H, D + H), draw(4 * H))
    bwd = LstmCellParams(draw(4 * H, D + H), draw(4 * H))
    heads = tuple(
        SoftmaxHead(draw(len(labels), 2 * H), draw(len(labels)), tuple(labels))
        for labels in shape.heads
    )
    return ModelParams(tables, fwd, bwd, heads, H)


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
class _DirCache:
    """One direction's states over a (B, n) batch, time-major."""

    xs: np.ndarray     # (B, n, D) inputs
    gates: np.ndarray  # (n, B, 4H) i, f, o after the sigmoid, g after tanh
    c: np.ndarray      # (n + 1, B, H) cell states, c[0] = 0
    tc: np.ndarray     # (n, B, H) tanh(c[t + 1])
    h: np.ndarray      # (n + 1, B, H) hidden states, h[0] = 0


def _run_direction(cell: LstmCellParams, xs: np.ndarray) -> _DirCache:
    """Run one LSTM direction over ``B`` equal-length sequences in lockstep.

    The input projection ``X @ W_x.T + b`` covers every timestep before the
    loop, so only the recurrent product ``h @ W_h.T`` stays inside it.
    """
    B, n, D = xs.shape
    H = cell.hidden
    # the projection buffer turns into the gate activations, step by step
    gates = xs.transpose(1, 0, 2).reshape(n * B, D) @ cell.w[:, :D].T
    gates = gates.reshape(n, B, 4 * H)
    gates += cell.b
    w_h = np.ascontiguousarray(cell.w[:, D:].T)
    c = np.zeros((n + 1, B, H))
    tc = np.empty((n, B, H))
    h = np.zeros((n + 1, B, H))
    for t in range(n):
        z = gates[t]
        z += h[t] @ w_h
        # sigmoid(x) = (1 + tanh(x / 2)) / 2, so one tanh covers all four gates
        sig = z[:, :3 * H]
        sig *= 0.5
        np.tanh(z, out=z)
        sig *= 0.5
        sig += 0.5
        np.multiply(z[:, H:2 * H], c[t], out=c[t + 1])
        c[t + 1] += z[:, :H] * z[:, 3 * H:]
        np.tanh(c[t + 1], out=tc[t])
        np.multiply(z[:, 2 * H:3 * H], tc[t], out=h[t + 1])
    return _DirCache(xs, gates, c, tc, h)


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
    xs: np.ndarray          # post-dropout inputs (n, D)
    fwd: _DirCache
    bwd: _DirCache          # stored in reversed time order
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
    fwd = _run_direction(params.fwd, xs[None])
    bwd = _run_direction(params.bwd, xs[None, ::-1])
    features = np.concatenate([fwd.h[1:, 0], bwd.h[:0:-1, 0]], axis=1)
    head_input = features * masks.features if masks is not None else features
    return _ForwardCache(seqs, xs, fwd, bwd, features, head_input, masks)


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
            # gathered time-major, so the forward projection needs no copy
            xs = np.concatenate(
                [
                    table.weights[np.stack([seqs[k][j] for k in group], axis=1)]
                    for j, table in enumerate(params.tables)
                ],
                axis=2,
            ).transpose(1, 0, 2)
            # only the hidden states outlive each direction's run
            fwd_h = _run_direction(params.fwd, xs).h[1:].transpose(1, 0, 2)
            bwd_h = _run_direction(params.bwd, xs[:, ::-1]).h[:0:-1].transpose(1, 0, 2)
            yield np.array(group), np.concatenate([fwd_h, bwd_h], axis=2)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def head_forward(head: SoftmaxHead, features: np.ndarray) -> np.ndarray:
    """Class probabilities for one head; accepts (2H,) or (n, 2H)."""
    return softmax(features @ head.w.T + head.b)


# ---------------------------------------------------------------------------
# loss and gradients

def _backward_direction(
    cell: LstmCellParams, cache: _DirCache, dh_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagation through time for a cache of one sequence (B = 1)."""
    n, H = dh_out.shape
    D = cell.input_dim
    gates = cache.gates[:, 0]
    i_a, f_a, o_a, g_a = (gates[:, k * H:(k + 1) * H] for k in range(4))
    c_prev = cache.c[:-1, 0]
    tc_a = cache.tc[:, 0]
    dz_all = np.empty((n, 4 * H))
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    w_h = cell.w[:, D:]
    for t in range(n - 1, -1, -1):
        dh = dh_out[t] + dh_next
        i, f, o, g = i_a[t], f_a[t], o_a[t], g_a[t]
        tc = tc_a[t]
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dz = dz_all[t]
        dz[:H] = dc * g * i * (1.0 - i)
        dz[H:2 * H] = dc * c_prev[t] * f * (1.0 - f)
        dz[2 * H:3 * H] = do * o * (1.0 - o)
        dz[3 * H:] = dc * i * (1.0 - g * g)
        dh_next = dz @ w_h
        dc_next = dc * f
    xh = np.concatenate([cache.xs[0], cache.h[:-1, 0]], axis=1)
    dw = dz_all.T @ xh
    db = dz_all.sum(axis=0)
    dx = dz_all @ cell.w[:, :D]
    return dw, db, dx


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
        for j, head in enumerate(params.heads):
            gold = np.concatenate([np.asarray(item[j], dtype=np.int64) for item in labels])
            logp = log_softmax(flat @ head.w.T + head.b)
            total -= float(logp[rows, gold].sum())
    return total


def loss_and_gradients(
    params: ModelParams,
    batch: Sequence[tuple],
    masks: Sequence[DropoutMasks | None] | None = None,
) -> tuple[float, Gradients]:
    """Summed cross-entropy and its gradients over a batch.

    Each batch item pairs token ids (one array, or a tuple of arrays for
    multi-channel inputs) with one gold id array per head.  ``masks``
    optionally supplies fixed dropout masks per item; fixed masks keep the
    computation deterministic, which the gradient check relies on.
    """
    grads = zero_gradients(params)
    total = 0.0
    H = params.hidden
    for b, (ids, labels) in enumerate(batch):
        item_masks = masks[b] if masks is not None else None
        fc = _forward(params, ids, item_masks)
        n = fc.xs.shape[0]
        if n == 0:
            continue
        if len(labels) != len(params.heads):
            raise NeuralError(
                f"batch item {b}: {len(labels)} label sequences for "
                f"{len(params.heads)} heads"
            )
        rows = np.arange(n)
        dfeats_dropped = np.zeros((n, 2 * H))
        for j, (head, gold) in enumerate(zip(params.heads, labels)):
            gold = np.asarray(gold, dtype=np.int64)
            if len(gold) != n:
                raise NeuralError(
                    f"batch item {b}, head {j}: {len(gold)} labels for {n} positions"
                )
            logits = fc.head_input @ head.w.T + head.b
            logp = log_softmax(logits)
            total -= float(logp[rows, gold].sum())
            dlogits = np.exp(logp)
            dlogits[rows, gold] -= 1.0
            gw, gb = grads.heads[j]
            gw += dlogits.T @ fc.head_input
            gb += dlogits.sum(axis=0)
            dfeats_dropped += dlogits @ head.w
        dfeats = (
            dfeats_dropped * fc.masks.features
            if fc.masks is not None
            else dfeats_dropped
        )
        dw_f, db_f, dx_f = _backward_direction(params.fwd, fc.fwd, dfeats[:, :H])
        dw_b, db_b, dx_b = _backward_direction(
            params.bwd, fc.bwd, dfeats[::-1, H:]
        )
        grads.fwd_w += dw_f
        grads.fwd_b += db_f
        grads.bwd_w += dw_b
        grads.bwd_b += db_b
        dx = dx_f + dx_b[::-1]
        if fc.masks is not None:
            dx = dx * fc.masks.input
        offset = 0
        for k, (table, seq) in enumerate(zip(params.tables, fc.ids)):
            width = table.cols
            np.add.at(grads.tables[k], seq, dx[:, offset:offset + width])
            offset += width
    return total, grads


def _frozen_rows_of(params: ModelParams, name: str) -> int:
    if name.startswith("table"):
        return params.tables[int(name[len("table"):])].frozen_rows
    return 0


def sgd_step(params: ModelParams, grads: Gradients, learning_rate: float) -> ModelParams:
    """In-place SGD update; frozen embedding rows are left untouched."""
    for (name, p), (_, g) in zip(params.blocks(), grads.blocks()):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in block {name}")
        frozen = _frozen_rows_of(params, name)
        if frozen:
            p[frozen:] -= learning_rate * g[frozen:]
        else:
            p -= learning_rate * g
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

    block_errors: dict[str, float] = {}
    for (name, p), (_, g) in zip(params.blocks(), grads.blocks()):
        frozen = _frozen_rows_of(params, name)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        start = frozen * (p.shape[1] if p.ndim == 2 else 1)
        worst = 0.0
        for idx in range(start, flat_p.size):
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


def _checkpoint_shapes(hidden: int, tables, head_labels) -> dict[str, tuple[int, int]]:
    """The (rows, cols) of every block a checkpoint with this metadata holds."""
    H = hidden
    D = sum(cols for _, cols, _ in tables)
    shapes = {f"table{k}": (rows, cols) for k, (rows, cols, _) in enumerate(tables)}
    for direction in ("fwd", "bwd"):
        shapes[f"{direction}.w"] = (4 * H, D + H)
        shapes[f"{direction}.b"] = (1, 4 * H)
    for j, labels in enumerate(head_labels):
        shapes[f"head{j}.w"] = (len(labels), 2 * H)
        shapes[f"head{j}.b"] = (1, len(labels))
    return shapes


def load_params(path) -> ModelParams:
    """Read a checkpoint written by ``save_params``.

    A truncated or malformed file, or one whose blocks disagree with its
    metadata, raises NeuralError.  The checks run once per block.  The file
    is read line by line, so only one line of text is held at a time.
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
            hidden = int(meta["hidden"])
            table_meta = [
                (int(t["rows"]), int(t["cols"]), int(t["frozen_rows"]))
                for t in meta["tables"]
            ]
            head_labels = [tuple(h["labels"]) for h in meta["heads"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise NeuralError(f"{path}: bad checkpoint metadata ({exc!r})") from None
        shapes = _checkpoint_shapes(hidden, table_meta, head_labels)
        blocks: dict[str, np.ndarray] = {}
        for line in fh:
            header = line.rstrip("\n").split("\t")
            if len(header) != 4 or header[0] != "block" or header[1] not in shapes:
                raise NeuralError(f"{path}: expected block header, got {line!r}")
            name = header[1]
            shape = shapes[name]
            if header[2:] != [str(shape[0]), str(shape[1])]:
                raise NeuralError(
                    f"{path}: block {name} is {header[2]}x{header[3]}, "
                    f"expected {shape[0]}x{shape[1]}"
                )
            data = np.empty(shape)
            try:
                for r in range(shape[0]):
                    data[r] = next(fh).split()
            except StopIteration:
                raise NeuralError(f"{path}: block {name} is truncated") from None
            except ValueError:
                raise NeuralError(
                    f"{path}: block {name} has a row of the wrong width or a non-number"
                ) from None
            blocks[name] = data
    missing = [name for name in shapes if name not in blocks]
    if missing:
        raise NeuralError(f"{path}: missing blocks {', '.join(missing)}")
    tables = tuple(
        EmbeddingTable(blocks[f"table{k}"], frozen)
        for k, (_, _, frozen) in enumerate(table_meta)
    )
    fwd = LstmCellParams(blocks["fwd.w"], blocks["fwd.b"].reshape(-1))
    bwd = LstmCellParams(blocks["bwd.w"], blocks["bwd.b"].reshape(-1))
    heads = tuple(
        SoftmaxHead(blocks[f"head{j}.w"], blocks[f"head{j}.b"].reshape(-1), labels)
        for j, labels in enumerate(head_labels)
    )
    return ModelParams(tables, fwd, bwd, heads, hidden)

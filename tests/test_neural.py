import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslot import neural
from atomslot.neural import (
    DropoutMasks,
    EmbeddingTable,
    ModelParams,
    NeuralError,
    NonFiniteGradient,
    ShapeSpec,
    TrainingConfig,
    blstm_forward,
    blstm_forward_batch,
    gradient_check,
    head_forward,
    init_params,
    load_params,
    log_softmax,
    loss_and_gradients,
    make_dropout_masks,
    rng_stream,
    save_params,
    sequence_loss,
    sgd_step,
    softmax,
)

SHAPE = ShapeSpec(tables=((9, 4),), hidden=3, heads=(("O", "B", "I"),))


def small_params(seed=0, shape=SHAPE):
    return init_params(shape, seed)


# ---------------------------------------------------------------------------
# rng and initialization

def test_rng_stream_is_deterministic_and_tag_sensitive():
    a = rng_stream(7, 1, 2).random(4)
    b = rng_stream(7, 1, 2).random(4)
    c = rng_stream(7, 1, 3).random(4)
    d = rng_stream(8, 1, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_init_params_shapes_and_bounds():
    shape = ShapeSpec(tables=((11, 5), (4, 2)), hidden=6, heads=(("a", "b"), ("x", "y", "z")), frozen_rows=(3,))
    params = init_params(shape, 5, init_range=0.1)
    assert params.tables[0].weights.shape == (11, 5)
    assert params.tables[0].frozen_rows == 3
    assert params.tables[1].frozen_rows == 0
    assert params.cells_w[0].shape == (7 + 6, 24)
    assert params.cells_b[0].shape == (24,)
    assert params.heads[1].w.shape == (3, 12)
    assert params.input_dim == 7
    for _, arr in params.blocks():
        assert np.all(np.abs(arr) < 0.1)
        assert arr.dtype == np.float64


def test_init_params_deterministic_for_equal_seeds():
    a = init_params(SHAPE, 42)
    b = init_params(SHAPE, 42)
    for (_, x), (_, y) in zip(a.blocks(), b.blocks()):
        assert np.array_equal(x, y)


def test_init_params_draw_order_tables_first():
    # one stream, block by block: the table, then each direction's gate
    # weights drawn as W (4H, D+H) and stored transposed, and its bias, then
    # each head's weights and bias
    shape = ShapeSpec(tables=((9, 4), (5, 2)), hidden=3, heads=(("O", "B", "I"), ("x", "y")))
    params = init_params(shape, rng_stream(42))
    rng = rng_stream(42)
    expected = [
        (params.tables[0].weights, (9, 4)),
        (params.tables[1].weights, (5, 2)),
        (params.cells_w[0].T, (12, 6 + 3)),
        (params.cells_b[0], (12,)),
        (params.cells_w[1].T, (12, 6 + 3)),
        (params.cells_b[1], (12,)),
        (params.heads[0].w, (3, 6)),
        (params.heads[0].b, (3,)),
        (params.heads[1].w, (2, 6)),
        (params.heads[1].b, (2,)),
    ]
    for k, (block, size) in enumerate(expected):
        assert np.array_equal(block, rng.uniform(-0.2, 0.2, size=size)), k
    assert sum(block.size for block, _ in expected) == params.buffer.size


# ---------------------------------------------------------------------------
# forward pass against a naive per-gate oracle

def naive_lstm(w, b, xs):
    """One direction over ``xs``; ``w`` is W (4H, D+H), the transpose of
    the direction's ``cells_w`` slab."""
    H = b.shape[0] // 4
    h = np.zeros(H)
    c = np.zeros(H)
    out = []
    for x in xs:
        z = w @ np.concatenate([x, h]) + b
        i = 1.0 / (1.0 + np.exp(-z[:H]))
        f = 1.0 / (1.0 + np.exp(-z[H:2 * H]))
        o = 1.0 / (1.0 + np.exp(-z[2 * H:3 * H]))
        g = np.tanh(z[3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return np.array(out)


def test_blstm_matches_naive_oracle():
    params = small_params(seed=3)
    ids = np.array([1, 4, 2, 7, 0])
    xs = params.tables[0].weights[ids]
    fwd = naive_lstm(params.cells_w[0].T, params.cells_b[0], xs)
    bwd = naive_lstm(params.cells_w[1].T, params.cells_b[1], xs[::-1])[::-1]
    features = blstm_forward(params, ids)
    assert features.shape == (5, 6)
    np.testing.assert_allclose(features[:, :3], fwd, rtol=0, atol=1e-12)
    np.testing.assert_allclose(features[:, 3:], bwd, rtol=0, atol=1e-12)


def test_blstm_empty_sequence():
    params = small_params()
    features = blstm_forward(params, np.array([], dtype=np.int64))
    assert features.shape == (0, 6)


def test_multichannel_input_concatenates_embeddings():
    shape = ShapeSpec(tables=((5, 2), (4, 3)), hidden=2, heads=(("a", "b"),))
    params = init_params(shape, 9)
    ids = (np.array([1, 2]), np.array([0, 3]))
    xs = np.concatenate(
        [params.tables[0].weights[ids[0]], params.tables[1].weights[ids[1]]], axis=1
    )
    fwd = naive_lstm(params.cells_w[0].T, params.cells_b[0], xs)
    features = blstm_forward(params, ids)
    np.testing.assert_allclose(features[:, :2], fwd, atol=1e-12)


def test_channel_count_and_length_validation():
    shape = ShapeSpec(tables=((5, 2), (4, 3)), hidden=2, heads=(("a", "b"),))
    params = init_params(shape, 9)
    with pytest.raises(NeuralError):
        blstm_forward(params, np.array([1, 2]))
    with pytest.raises(NeuralError):
        blstm_forward(params, (np.array([1, 2]), np.array([0])))


@pytest.mark.parametrize("call", [
    lambda params, ids: list(blstm_forward_batch(params, [ids])),
    lambda params, ids: sequence_loss(params, [(ids, [np.zeros(3, dtype=np.int64)])]),
    lambda params, ids: loss_and_gradients(params, [(ids, [np.zeros(3, dtype=np.int64)])]),
    lambda params, ids: sgd_step(params, (ids, [np.zeros(3, dtype=np.int64)]), None, 0.1),
], ids=["blstm_forward_batch", "sequence_loss", "loss_and_gradients", "sgd_step"])
@pytest.mark.parametrize("ids, bad", [
    (([0, 1, -1], [0, 1, 2]), "id -1 is not a row of table 0, which has 5"),
    (([0, 1, 5], [0, 1, 2]), "id 5 is not a row of table 0, which has 5"),
    (([0, 1, 2], [0, 4, 1]), "id 4 is not a row of table 1, which has 4"),
], ids=["negative", "past-the-end", "second-table"])
def test_an_id_outside_its_table_is_refused(call, ids, bad):
    """A negative id would wrap to the last row, and a large one escape as
    an IndexError."""
    shape = ShapeSpec(tables=((5, 2), (4, 3)), hidden=2, heads=(("a", "b"),))
    params = init_params(shape, 9)
    with pytest.raises(NeuralError, match=bad):
        call(params, tuple(np.array(seq) for seq in ids))


# ---------------------------------------------------------------------------
# softmax and loss

def test_softmax_known_values():
    probs = softmax(np.array([0.0, math.log(3.0)]))
    np.testing.assert_allclose(probs, [0.25, 0.75], atol=1e-12)
    big = softmax(np.array([1000.0, 1000.0, 999.0]))
    assert np.isfinite(big).all()
    np.testing.assert_allclose(big.sum(), 1.0, atol=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
@settings(max_examples=100)
def test_softmax_shift_invariance(logits):
    arr = np.array(logits)
    np.testing.assert_allclose(softmax(arr), softmax(arr + 17.5), atol=1e-9)
    np.testing.assert_allclose(softmax(arr).sum(), 1.0, atol=1e-9)
    np.testing.assert_allclose(log_softmax(arr), np.log(softmax(arr)), atol=1e-9)


def zeroed(params):
    out = params.copy()
    for _, arr in out.blocks():
        arr[...] = 0.0
    return out


def test_zero_params_give_uniform_probs_and_log_c_loss():
    params = zeroed(small_params())
    ids = np.array([1, 2, 3])
    probs = head_forward(params.heads[0], blstm_forward(params, ids))
    np.testing.assert_allclose(probs, np.full((3, 3), 1.0 / 3.0), atol=1e-12)
    loss = sequence_loss(params, [(ids, (np.array([0, 1, 2]),))])
    np.testing.assert_allclose(loss, 3 * math.log(3.0), atol=1e-12)


def test_sequence_loss_matches_loss_and_gradients():
    params = small_params(seed=11)
    batch = [
        (np.array([1, 2, 3, 4]), (np.array([0, 1, 2, 0]),)),
        (np.array([5, 6]), (np.array([2, 2]),)),
    ]
    forward_only = sequence_loss(params, batch)
    with_grads, _ = loss_and_gradients(params, batch)
    np.testing.assert_allclose(forward_only, with_grads, atol=1e-12)


def test_loss_sums_over_batch_items():
    params = small_params(seed=11)
    a = (np.array([1, 2]), (np.array([0, 1]),))
    b = (np.array([3]), (np.array([2]),))
    np.testing.assert_allclose(
        sequence_loss(params, [a, b]),
        sequence_loss(params, [a]) + sequence_loss(params, [b]),
        atol=1e-12,
    )


def test_label_head_count_mismatch_raises():
    params = small_params()
    with pytest.raises(NeuralError):
        sequence_loss(params, [(np.array([1]), (np.array([0]), np.array([0])))])
    with pytest.raises(NeuralError):
        loss_and_gradients(params, [(np.array([1]), ())])


# ---------------------------------------------------------------------------
# gradients

def test_gradient_check_single_channel():
    params = small_params(seed=21)
    batch = [(np.array([1, 4, 2, 7]), (np.array([0, 1, 2, 1]),))]
    report = gradient_check(params, batch)
    assert report.passed, report.block_errors
    assert report.max_relative_error < 1e-6


def test_gradient_check_multichannel_frozen_and_two_heads():
    shape = ShapeSpec(
        tables=((7, 3), (4, 2)),
        hidden=3,
        heads=(("O", "B", "I"), ("null", "a", "b")),
        frozen_rows=(2, 0),
    )
    params = init_params(shape, 33)
    batch = [
        (
            (np.array([1, 6, 2]), np.array([0, 3, 1])),
            (np.array([0, 1, 2]), np.array([2, 0, 1])),
        ),
        (
            (np.array([5, 1]), np.array([2, 2])),
            (np.array([1, 1]), np.array([0, 2])),
        ),
    ]
    report = gradient_check(params, batch)
    assert report.passed, report.block_errors
    # every block is exercised
    assert set(report.block_errors) == {
        "table0", "table1", "fwd.w", "fwd.b", "bwd.w", "bwd.b",
        "head0.w", "head0.b", "head1.w", "head1.b",
    }


def test_frozen_rows_get_gradients_but_no_updates():
    shape = ShapeSpec(tables=((6, 3),), hidden=2, heads=(("a", "b"),), frozen_rows=(6,))
    params = init_params(shape, 2)
    before = params.tables[0].weights.copy()
    batch = [(np.array([0, 1, 5]), (np.array([0, 1, 0]),))]
    _, grads = loss_and_gradients(params, batch)
    assert np.abs(grads.tables[0].weights).sum() > 0.0
    sgd_step(params, batch[0], None, 0.5)
    assert np.array_equal(params.tables[0].weights, before)
    assert not np.array_equal(params.cells_w[0], init_params(shape, 2).cells_w[0])


def test_sgd_step_closed_form():
    """At zero parameters every feature is zero and every class equally
    likely, so only the head biases have a gradient: n / C - count(c)."""
    params = zeroed(small_params(seed=4))
    item = (np.array([1, 2, 3]), (np.array([0, 1, 0]),))
    loss = sgd_step(params, item, None, 0.1)
    np.testing.assert_allclose(loss, 3 * math.log(3.0), atol=1e-12)
    np.testing.assert_allclose(params.heads_b, [0.1, 0.0, -0.1], atol=1e-15)
    params.heads_b[:] = 0.0
    assert not params.buffer.any()


def test_zeros_like_is_a_fresh_buffer_in_the_same_layout():
    shape = ShapeSpec(tables=((6, 3), (4, 2)), hidden=2, heads=(("a", "b"), ("x", "y", "z")),
                      frozen_rows=(2,))
    params = init_params(shape, 1)
    for twin in (params.zeros_like(), params.copy()):
        assert twin.shape == params.shape
        assert not np.shares_memory(twin.buffer, params.buffer)
        assert twin.trainable == params.trainable and twin.head_rows == params.head_rows
        for (name, block), (_, original) in zip(twin.blocks(), params.blocks()):
            assert block.shape == original.shape, name
            assert np.shares_memory(block, twin.buffer), name
    assert not params.zeros_like().buffer.any()
    assert [h.labels for h in params.copy().heads] == [("a", "b"), ("x", "y", "z")]


def test_sgd_rejects_non_finite_gradients(monkeypatch):
    params = small_params()
    before = params.buffer.copy()
    real = neural._item_factors

    def item_factors(*args):
        factors = real(*args)
        factors.xh[1, 0, 0] = np.nan  # the backward cell's first weight row
        return factors

    monkeypatch.setattr(neural, "_item_factors", item_factors)
    with pytest.raises(NonFiniteGradient, match="bwd.w"):
        sgd_step(params, (np.array([1, 2]), (np.array([0, 2]),)), None, 0.1)
    assert np.array_equal(params.buffer, before)


@pytest.mark.parametrize("bad", [-1, 3])
def test_a_gold_id_outside_its_head_is_refused(bad):
    """A negative id would train the head's last class, and a large one
    escape as an IndexError."""
    shape = ShapeSpec(tables=((9, 4),), hidden=3, heads=(("O", "B", "I"), ("x", "y", "z")))
    params = init_params(shape, 0)
    before = params.buffer.copy()
    item = (np.array([1, 2]), (np.array([0, 1]), np.array([2, bad])))
    message = f"head 1: label id {bad} is not one of its 3 classes"
    with pytest.raises(NeuralError, match=message):
        sequence_loss(params, [item])
    with pytest.raises(NeuralError, match="batch item 1, " + message):
        loss_and_gradients(params, [(np.array([4]), (np.array([0]), np.array([0]))), item])
    with pytest.raises(NeuralError, match=message):
        sgd_step(params, item, None, 0.1)
    assert np.array_equal(params.buffer, before)


# ---------------------------------------------------------------------------
# dropout

def test_dropout_masks_off_and_on():
    assert make_dropout_masks(rng_stream(0), 0.0, 4, 3, 2) is None
    masks = make_dropout_masks(rng_stream(0), 0.5, 50, 8, 4)
    assert masks.input.shape == (50, 8)
    assert masks.features.shape == (50, 8)
    assert set(np.unique(masks.input)) <= {0.0, 2.0}
    again = make_dropout_masks(rng_stream(0), 0.5, 50, 8, 4)
    assert np.array_equal(masks.input, again.input)


def test_dropout_only_touches_inputs_and_features():
    params = small_params(seed=6)
    ids = np.array([1, 2, 3])
    keep_all = DropoutMasks(input=np.ones((3, 4)), features=np.ones((3, 6)))
    loss_plain, _ = loss_and_gradients(params, [(ids, (np.array([0, 1, 2]),))])
    loss_masked, _ = loss_and_gradients(
        params, [(ids, (np.array([0, 1, 2]),))], masks=[keep_all]
    )
    np.testing.assert_allclose(loss_plain, loss_masked, atol=1e-15)


def test_gradient_check_with_fixed_dropout_masks():
    params = small_params(seed=8)
    ids = np.array([2, 5, 1])
    masks = make_dropout_masks(rng_stream(3), 0.4, 3, 4, 3)
    batch = [(ids, (np.array([1, 0, 2]),))]

    # finite differences must see the same masks the analytic pass used
    _, grads = loss_and_gradients(params, batch, masks=[masks])
    eps = 1e-5
    worst = 0.0
    for (_, p), (_, g) in zip(params.blocks(), grads.blocks()):
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for idx in range(0, flat_p.size, 7):
            orig = flat_p[idx]
            flat_p[idx] = orig + eps
            above, _ = loss_and_gradients(params, batch, masks=[masks])
            flat_p[idx] = orig - eps
            below, _ = loss_and_gradients(params, batch, masks=[masks])
            flat_p[idx] = orig
            numeric = (above - below) / (2 * eps)
            rel = abs(flat_g[idx] - numeric) / max(1e-4, abs(flat_g[idx]) + abs(numeric))
            worst = max(worst, rel)
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# checkpoints

def test_save_load_round_trip_is_bit_exact(tmp_path):
    shape = ShapeSpec(
        tables=((7, 3), (4, 2)),
        hidden=3,
        heads=(("O", "B", "I"), ("null", "a")),
        frozen_rows=(2, 0),
    )
    params = init_params(shape, 13)
    path = tmp_path / "params.npy"
    with open(path, "wb") as fh:
        save_params(params, fh)
    again = load_params(path, ShapeSpec.from_json(json.loads(json.dumps(shape.to_json()))))
    assert again.shape == shape
    assert np.array_equal(again.buffer, params.buffer)
    assert again.hidden == params.hidden
    assert again.tables[0].frozen_rows == 2
    assert again.heads[0].labels == ("O", "B", "I")


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.npy"
    path.write_text("not a checkpoint\n")
    with pytest.raises(NeuralError):
        load_params(path, SHAPE)


def _npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=True)
    return buffer.getvalue()


def _corrupt_truncated(data, params):
    return data[: len(data) // 2]


def _corrupt_short_row(data, params):
    # the header still announces every value; the last one is missing
    return data[:-8]


def _corrupt_non_numeric(data, params):
    return data.replace(b"'<f8'", b"'|S8'", 1)


def _corrupt_missing_block(data, params):
    return _npy_bytes(params.buffer[: -params.heads[0].b.size])


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_truncated, _corrupt_short_row, _corrupt_non_numeric, _corrupt_missing_block],
)
def test_load_rejects_damaged_checkpoints(tmp_path, corrupt):
    params = small_params(seed=2)
    path = tmp_path / "params.npy"
    with open(path, "wb") as fh:
        save_params(params, fh)
    path.write_bytes(corrupt(path.read_bytes(), params))
    with pytest.raises(NeuralError):
        load_params(path, SHAPE)


@pytest.mark.parametrize(
    "data",
    [
        _npy_bytes(small_params().buffer.astype(np.float32)),
        _npy_bytes(np.arange(small_params().buffer.size)),
        _npy_bytes(small_params().buffer.astype(object)),
        _npy_bytes(np.zeros(small_params().buffer.size + 1)),
        _npy_bytes(small_params().buffer.reshape(1, -1)),
        b"\x93NUMPY\x01\x00 this is no array header",
    ],
    ids=["float32", "int64", "object", "wrong-length", "2-d", "not-npy"],
)
def test_load_rejects_files_that_are_not_the_buffer(tmp_path, data):
    path = tmp_path / "params.npy"
    path.write_bytes(data)
    with pytest.raises(NeuralError):
        load_params(path, SHAPE)


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: [obj],
        lambda obj: {**obj, "hidden": "3"},
        lambda obj: {**obj, "hidden": 0},
        lambda obj: {**obj, "hidden": True},
        lambda obj: {**obj, "tables": [[9, 4, 1]]},
        lambda obj: {**obj, "tables": [[9, -4]]},
        lambda obj: {**obj, "tables": [[9, True]]},
        lambda obj: {**obj, "heads": ["OBI"]},
        lambda obj: {**obj, "heads": [["O", 1]]},
        lambda obj: {**obj, "frozen_rows": 0},
        lambda obj: {k: v for k, v in obj.items() if k != "heads"},
        lambda obj: {**obj, "extra": 1},
        lambda obj: {**obj, "frozen_rows": [0, 0]},
        lambda obj: {**obj, "frozen_rows": [10]},
        lambda obj: {**obj, "frozen_rows": [True]},
        lambda obj: {**obj, "heads": [["O", "B", "O"]]},
    ],
)
def test_shape_from_json_rejects_malformed_shapes(edit):
    assert ShapeSpec.from_json(SHAPE.to_json()) == SHAPE
    with pytest.raises(NeuralError):
        ShapeSpec.from_json(edit(SHAPE.to_json()))


# ---------------------------------------------------------------------------
# config validation

def test_training_config_grid():
    assert TrainingConfig().grid() == (0.008, 0.016, 0.024, 0.032, 0.04)
    assert TrainingConfig(learning_rate=0.5).grid() == (0.5,)
    for bad in (
        dict(dropout=1.0),
        dict(dropout=-0.1),
        dict(epochs=-1),
        dict(init_range=0.0),
        dict(init_range=float("nan")),
        dict(init_range=float("inf")),
        dict(hidden=0),
        dict(lr_grid=()),
        dict(lr_grid=(0.1, -0.2)),
        dict(lr_grid=(0.1, float("nan"))),
        dict(lr_grid=(float("inf"),)),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("-inf")),
    ):
        with pytest.raises(ValueError):
            TrainingConfig(**bad)


def test_head_label_validation():
    ShapeSpec(((5, 3),), 2, (("a", "b"), ("a", "c")))
    with pytest.raises(NeuralError):
        ShapeSpec(((5, 3),), 2, (("a", "b"), ("a", "a")))
    with pytest.raises(NeuralError):
        ShapeSpec(((5, 3),), 2, (("a", 1),))


@pytest.mark.parametrize(
    "frozen_rows", [(1, 9, 4), (0, 0), (6,), (-1,), (True,), (1.0,)],
    ids=["more-counts-than-tables", "two-counts-one-table", "beyond-the-rows",
         "negative", "bool", "float"],
)
def test_shape_rejects_frozen_rows_that_fit_no_table(frozen_rows):
    assert ShapeSpec(((5, 3),), 2, (("a", "b"),), (5,)).frozen_rows == (5,)
    with pytest.raises(NeuralError):
        ShapeSpec(((5, 3),), 2, (("a", "b"),), frozen_rows)


def test_no_frozen_rows_has_one_spelling():
    shapes = [ShapeSpec(((5, 3), (4, 2)), 2, (("a", "b"),), frozen) for frozen in ((), (0,), (0, 0))]
    assert shapes[0] == shapes[1] == shapes[2]
    assert shapes[0].frozen_rows == (0, 0)
    assert len({json.dumps(shape.to_json()) for shape in shapes}) == 1
    # the shorter lists that older bundles hold read back as the padded form
    for frozen, short in (((0, 0), []), ((5, 0), [5])):
        shape = ShapeSpec(((5, 3), (4, 2)), 2, (("a", "b"),), frozen)
        assert ShapeSpec.from_json({**shape.to_json(), "frozen_rows": short}) == shape

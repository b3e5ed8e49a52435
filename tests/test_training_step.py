"""The flat parameter layout and the fused two-direction training step
against the per-direction code they replaced.

The reference below is the training step as it was before both LSTM
directions shared one kernel: one direction at a time forward and back,
each parameter block in its own array, and an SGD update block by block.
The fused step groups its products differently, so gradients agree to
1e-12, not bit for bit.
"""

import math

import numpy as np
import pytest

from atomslot import neural
from atomslot.neural import (
    ModelParams,
    NonFiniteGradient,
    ShapeSpec,
    init_params,
    loss_and_gradients,
    make_dropout_masks,
    rng_stream,
    sequence_loss,
    sgd_step,
)


def reference_direction(w, b, xs):
    """One direction over one sequence (n, D); returns the step caches."""
    n, D = xs.shape
    H = b.shape[0] // 4
    gates = xs @ w[:, :D].T + b
    w_h = w[:, D:].T
    c = np.zeros((n + 1, H))
    tc = np.empty((n, H))
    h = np.zeros((n + 1, H))
    for t in range(n):
        z = gates[t]
        z += h[t] @ w_h
        z[:3 * H] = 1.0 / (1.0 + np.exp(-z[:3 * H]))
        z[3 * H:] = np.tanh(z[3 * H:])
        c[t + 1] = z[H:2 * H] * c[t] + z[:H] * z[3 * H:]
        tc[t] = np.tanh(c[t + 1])
        h[t + 1] = z[2 * H:3 * H] * tc[t]
    return gates, c, tc, h


def reference_backward(w, xs, cache, dh_out):
    gates, c, tc_a, h = cache
    n, H = dh_out.shape
    D = xs.shape[1]
    i_a, f_a, o_a, g_a = (gates[:, k * H:(k + 1) * H] for k in range(4))
    dz_all = np.empty((n, 4 * H))
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    for t in range(n - 1, -1, -1):
        dh = dh_out[t] + dh_next
        i, f, o, g, tc = i_a[t], f_a[t], o_a[t], g_a[t], tc_a[t]
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dz = dz_all[t]
        dz[:H] = dc * g * i * (1.0 - i)
        dz[H:2 * H] = dc * c[t] * f * (1.0 - f)
        dz[2 * H:3 * H] = do * o * (1.0 - o)
        dz[3 * H:] = dc * i * (1.0 - g * g)
        dh_next = dz @ w[:, D:]
        dc_next = dc * f
    xh = np.concatenate([xs, h[:-1]], axis=1)
    return dz_all.T @ xh, dz_all.sum(axis=0), dz_all @ w[:, :D]


def reference_gradients(params, batch, masks=None):
    """Loss and gradients by block name, one direction and head at a time."""
    grads = {name: np.zeros_like(arr) for name, arr in params.blocks()}
    total = 0.0
    H = params.hidden
    for k, (ids, labels) in enumerate(batch):
        seqs = ids if isinstance(ids, tuple) else (ids,)
        m = masks[k] if masks is not None else None
        xs = np.concatenate([t.weights[s] for t, s in zip(params.tables, seqs)], axis=1)
        n = xs.shape[0]
        if n == 0:
            continue
        if m is not None:
            xs = xs * m.input
        fwd = reference_direction(params.fwd.w, params.fwd.b, xs)
        bwd = reference_direction(params.bwd.w, params.bwd.b, xs[::-1])
        feats = np.concatenate([fwd[3][1:], bwd[3][:0:-1]], axis=1)
        head_in = feats * m.features if m is not None else feats
        dfeats = np.zeros((n, 2 * H))
        for j, (head, gold) in enumerate(zip(params.heads, labels)):
            logits = head_in @ head.w.T + head.b
            logp = logits - logits.max(axis=1, keepdims=True)
            logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
            total -= logp[np.arange(n), gold].sum()
            dlogits = np.exp(logp)
            dlogits[np.arange(n), gold] -= 1.0
            grads[f"head{j}.w"] += dlogits.T @ head_in
            grads[f"head{j}.b"] += dlogits.sum(axis=0)
            dfeats += dlogits @ head.w
        if m is not None:
            dfeats = dfeats * m.features
        dw_f, db_f, dx_f = reference_backward(params.fwd.w, xs, fwd, dfeats[:, :H])
        dw_b, db_b, dx_b = reference_backward(params.bwd.w, xs[::-1], bwd, dfeats[::-1, H:])
        grads["fwd.w"] += dw_f
        grads["fwd.b"] += db_f
        grads["bwd.w"] += dw_b
        grads["bwd.b"] += db_b
        dx = dx_f + dx_b[::-1]
        if m is not None:
            dx = dx * m.input
        offset = 0
        for t, (table, seq) in enumerate(zip(params.tables, seqs)):
            np.add.at(grads[f"table{t}"], seq, dx[:, offset:offset + table.cols])
            offset += table.cols
    return total, grads


def reference_sgd_step(params, grads, learning_rate):
    """Block by block, as before the flat layout: a bad block is found only
    after the blocks ahead of it were updated."""
    frozen = {f"table{k}": t.frozen_rows for k, t in enumerate(params.tables)}
    for name, p in params.blocks():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(name)
        p[frozen.get(name, 0):] -= learning_rate * g[frozen.get(name, 0):]


ONE_TABLE = ShapeSpec(
    tables=((12, 5),), hidden=4, heads=(("O", "B", "I"), ("null", "a", "b", "c"))
)
TWO_TABLES = ShapeSpec(  # the ACD2 stage-2 shape: frozen words, learned concepts
    tables=((12, 5), (4, 3)), hidden=4, heads=(("null", "x", "y"),), frozen_rows=(12, 0)
)
FROZEN = ShapeSpec(tables=((12, 5),), hidden=3, heads=(("a", "b"),), frozen_rows=(7,))


def make_item(shape, rng, n):
    ids = tuple(rng.integers(0, rows, size=n) for rows, _ in shape.tables)
    gold = tuple(rng.integers(0, len(labels), size=n) for labels in shape.heads)
    return (ids if len(ids) > 1 else ids[0], gold)


def assert_gradients_match(params, batch, masks=None):
    loss, grads = loss_and_gradients(params, batch, masks)
    ref_loss, ref = reference_gradients(params, batch, masks)
    assert math.isclose(loss, ref_loss, rel_tol=0, abs_tol=1e-12)
    names = [name for name, _ in grads.blocks()]
    assert names == list(ref)
    for name, g in grads.blocks():
        np.testing.assert_allclose(g, ref[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("shape", [ONE_TABLE, TWO_TABLES, FROZEN], ids=["one", "two", "frozen"])
@pytest.mark.parametrize("n", [0, 1, 15])
def test_fused_gradients_equal_the_per_direction_reference(shape, n):
    rng = np.random.default_rng(n)
    params = init_params(shape, 5, init_range=0.5)
    assert_gradients_match(params, [make_item(shape, rng, n)])


@pytest.mark.parametrize("shape", [ONE_TABLE, TWO_TABLES], ids=["one", "two"])
def test_fused_gradients_with_fixed_dropout_masks(shape):
    rng = np.random.default_rng(2)
    params = init_params(shape, 6, init_range=0.5)
    batch = [make_item(shape, rng, n) for n in (9, 4)]
    masks = [
        make_dropout_masks(rng_stream(1, n), 0.4, n, params.input_dim, params.hidden)
        for n in (9, 4)
    ]
    assert_gradients_match(params, batch, masks)
    # one item without masks among items with them
    assert_gradients_match(params, batch, [None, masks[1]])


def test_fused_gradients_over_a_batch_of_several_items():
    rng = np.random.default_rng(3)
    params = init_params(TWO_TABLES, 7, init_range=0.5)
    batch = [make_item(TWO_TABLES, rng, n) for n in (6, 0, 1, 11, 6)]
    assert_gradients_match(params, batch)


def test_sgd_step_matches_the_per_block_update():
    rng = np.random.default_rng(4)
    params = init_params(FROZEN, 8)
    reference = params.copy()
    _, grads = loss_and_gradients(params, [make_item(FROZEN, rng, 5)])
    sgd_step(params, grads, 0.3)
    reference_sgd_step(reference, dict(grads.blocks()), 0.3)
    assert np.array_equal(params.buffer, reference.buffer)
    # frozen rows got a gradient, but kept their values
    assert np.abs(grads.tables[0].weights[:7]).sum() > 0
    assert np.array_equal(params.tables[0].weights[:7], init_params(FROZEN, 8).tables[0].weights[:7])


def test_sgd_step_with_a_nan_in_the_last_block_changes_nothing():
    params = init_params(ONE_TABLE, 9)
    before = params.buffer.copy()
    grads = params.zeros_like()
    grads.buffer[:] = 1.0
    name, last = list(grads.blocks())[-1]
    assert name == "head1.b"
    last[-1] = np.nan
    with pytest.raises(NonFiniteGradient, match="head1.b"):
        sgd_step(params, grads, 0.1)
    assert np.array_equal(params.buffer, before)
    # the per-block update it replaced had already written the blocks ahead
    reference = init_params(ONE_TABLE, 9)
    with pytest.raises(NonFiniteGradient):
        reference_sgd_step(reference, dict(grads.blocks()), 0.1)
    assert not np.array_equal(reference.buffer, before)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sgd_step_accepts_finite_gradients_whose_squares_overflow():
    params = init_params(ONE_TABLE, 9)
    grads = params.zeros_like()
    grads.buffer[:2] = 1e308
    sgd_step(params, grads, 1e-300)
    assert np.isfinite(params.buffer).all()


def test_blocks_are_contiguous_views_of_one_buffer():
    params = init_params(TWO_TABLES, 1)
    grads = params.zeros_like()
    for holder in (params, grads):
        total = 0
        for name, block in holder.blocks():
            assert block.flags.c_contiguous, name
            assert np.shares_memory(block, holder.buffer), name
            total += block.size
        assert total == holder.buffer.size == holder.n_parameters()
    # the two cells and the heads sit side by side
    assert np.shares_memory(params.cells_w[1], params.bwd.w)
    assert np.shares_memory(params.heads_w, params.heads[0].w)


def test_copy_is_independent_of_the_original():
    params = init_params(ONE_TABLE, 2)
    twin = params.copy()
    assert not np.shares_memory(twin.buffer, params.buffer)
    twin.fwd.w[0, 0] += 1.0
    twin.tables[0].weights[:] = 0.0
    assert np.array_equal(params.buffer, init_params(ONE_TABLE, 2).buffer)
    assert twin.shape == params.shape
    assert twin.heads[1].labels == params.heads[1].labels


def test_a_write_through_blocks_reaches_sequence_loss():
    params = init_params(ONE_TABLE, 3)
    batch = [make_item(ONE_TABLE, np.random.default_rng(0), 6)]
    before = sequence_loss(params, batch)
    for name, block in params.blocks():
        if name == "head1.b":
            block[0] += 5.0
    assert sequence_loss(params, batch) != before
    assert params.heads_b[3] == params.heads[1].b[0]


def test_pack_rejects_a_block_of_the_wrong_shape():
    params = init_params(ONE_TABLE, 3)
    heads = list(params.heads)
    heads[0] = neural.SoftmaxHead(np.zeros((3, 7)), np.zeros(3), heads[0].labels)
    with pytest.raises(neural.NeuralError):
        ModelParams.pack(params.tables, params.fwd, params.bwd, heads)


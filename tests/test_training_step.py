"""The flat parameter layout and the fused two-direction training step
against the code they replaced.

The first reference below is the training step as it was before both LSTM
directions shared one kernel: one direction at a time forward and back,
each parameter block in its own array, and an SGD update block by block.
The fused step groups its products differently, so gradients agree to
1e-12, not bit for bit.

The second is the fused kernel as it was before its step caches became
time-major and gate-major, direction first with a fresh cache per call.
The layout moved, but every product and elementwise operation kept its
order, so gradients agree bit for bit.
"""

import math

import numpy as np
import pytest

from atomslot import neural
from atomslot.neural import (
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


def direction_major_cell_update(z, c_prev, c, tc, h):
    H = z.shape[-1] // 4
    sig = z[..., :3 * H]
    sig *= 0.5
    np.tanh(z, out=z)
    sig *= 0.5
    sig += 0.5
    np.multiply(z[..., H:2 * H], c_prev, out=c)
    c += z[..., :H] * z[..., 3 * H:]
    np.tanh(c, out=tc)
    np.multiply(z[..., 2 * H:3 * H], tc, out=h)


def direction_major_run_cells(params, xs):
    """Both directions over one sequence (n, 1, D), direction first."""
    n, B, D = xs.shape
    H = params.hidden
    both = np.empty((2, n, B, D))
    both[0] = xs
    both[1] = xs[::-1]
    gates = both.reshape(2, n * B, D) @ params.cells_w[:, :, :D].transpose(0, 2, 1)
    gates += params.cells_b[:, None]
    gates = gates.reshape(2, n, B, 4 * H)
    w_h = params.cells_w[:, :, -H:].transpose(0, 2, 1)
    c = np.zeros((2, n + 1, B, H))
    tc = np.empty((2, n, B, H))
    h = np.zeros((2, n + 1, B, H))
    for t in range(n):
        z = gates[:, t]
        z += h[:, t] @ w_h
        direction_major_cell_update(z, c[:, t], c[:, t + 1], tc[:, t], h[:, t + 1])
    return both, gates, c, tc, h


def direction_major_backprop_cells(params, cache, dh_out):
    xs, gates, c, tc, h = cache
    _, n, B, H4 = gates.shape
    H = H4 // 4
    D = xs.shape[3]
    i, f, o, g = (gates[..., k * H:(k + 1) * H] for k in range(4))
    dc_of_dh = o * (1.0 - tc * tc)
    factors = np.empty((2, n, B, 4, H))
    factors[..., 0, :] = g * i * (1.0 - i)
    factors[..., 1, :] = c[:, :-1] * f * (1.0 - f)
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
    xh = np.concatenate([xs, h[:, :-1]], axis=3).reshape(2, n * B, D + H)
    dx = (dz @ params.cells_w[:, :, :D]).reshape(2, n, B, D)
    return dz, xh, dx[0] + dx[1, ::-1]


def direction_major_gradients(params, batch, masks=None):
    """Loss and gradients through the direction-major fused kernel."""
    grads = params.zeros_like()
    total = 0.0
    H = params.hidden
    dlogits_all, head_in_all, dz_all, xh_all, dx_all, ids_all = [], [], [], [], [], []
    for b, (ids, labels) in enumerate(batch):
        m = masks[b] if masks is not None else None
        seqs = ids if isinstance(ids, tuple) else (ids,)
        xs = np.concatenate([t.weights[s] for t, s in zip(params.tables, seqs)], axis=1)
        n = xs.shape[0]
        if n == 0:
            continue
        if m is not None:
            xs = xs * m.input
        cache = direction_major_run_cells(params, xs[:, None])
        h = cache[4]
        features = np.concatenate([h[0, 1:], h[1, :0:-1]], axis=2)[:, 0]
        head_input = features * m.features if m is not None else features
        rows = np.arange(n)
        dlogits = head_input @ params.heads_w.T + params.heads_b
        for j, gold in enumerate(labels):
            segment = dlogits[:, params.head_rows[j]]
            logp = neural.log_softmax(segment)
            total -= float(logp[rows, gold].sum())
            np.exp(logp, out=segment)
            segment[rows, gold] -= 1.0
        dfeats = dlogits @ params.heads_w
        if m is not None:
            dfeats *= m.features
        dh_out = np.empty((2, n, 1, H))
        dh_out[0, :, 0] = dfeats[:, :H]
        dh_out[1, :, 0] = dfeats[::-1, H:]
        dz, xh, dx = direction_major_backprop_cells(params, cache, dh_out)
        dx = dx[:, 0]
        if m is not None:
            dx *= m.input
        dlogits_all.append(dlogits)
        head_in_all.append(head_input)
        dz_all.append(dz)
        xh_all.append(xh)
        dx_all.append(dx)
        ids_all.append(seqs)
    if not dz_all:
        return total, grads
    joined = neural._joined
    dlogits, dz, dx = joined(dlogits_all), joined(dz_all, axis=1), joined(dx_all)
    np.matmul(dlogits.T, joined(head_in_all), out=grads.heads_w)
    np.sum(dlogits, axis=0, out=grads.heads_b)
    np.matmul(dz.transpose(0, 2, 1), joined(xh_all, axis=1), out=grads.cells_w)
    np.sum(dz, axis=1, out=grads.cells_b)
    offset = 0
    for k, table in enumerate(grads.tables):
        np.add.at(table.weights, joined([item[k] for item in ids_all]),
                  dx[:, offset:offset + table.cols])
        offset += table.cols
    return total, grads


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


def assert_bit_identical(params, batch, masks=None):
    loss, grads = loss_and_gradients(params, batch, masks)
    ref_loss, ref = direction_major_gradients(params, batch, masks)
    assert loss == ref_loss
    for (name, g), (_, r) in zip(grads.blocks(), ref.blocks()):
        assert np.array_equal(g, r), name
    return grads


def fixed_masks(params, lengths, seed=1):
    return [
        make_dropout_masks(rng_stream(seed, n), 0.4, n, params.input_dim, params.hidden)
        for n in lengths
    ]


@pytest.mark.parametrize("shape", [ONE_TABLE, TWO_TABLES, FROZEN], ids=["one", "two", "frozen"])
@pytest.mark.parametrize("n", [0, 1, 15])
def test_gradients_equal_the_direction_major_kernel_bit_for_bit(shape, n):
    rng = np.random.default_rng(n)
    params = init_params(shape, 5, init_range=0.5)
    batch = [make_item(shape, rng, n)]
    assert_bit_identical(params, batch)
    masks = fixed_masks(params, [n])
    assert_bit_identical(params, batch, masks)


@pytest.mark.parametrize("shape", [ONE_TABLE, TWO_TABLES, FROZEN], ids=["one", "two", "frozen"])
def test_batch_gradients_equal_the_direction_major_kernel_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    params = init_params(shape, 7, init_range=0.5)
    lengths = (6, 0, 1, 11, 1, 6)
    batch = [make_item(shape, rng, n) for n in lengths]
    assert_bit_identical(params, batch)
    masks = fixed_masks(params, lengths)
    masks[2] = None
    assert_bit_identical(params, batch, masks)


def test_the_reused_workspace_leaves_earlier_results_alone(monkeypatch):
    """Lengths that shrink, vanish and outgrow the workspace, over two
    shapes of one hidden size, so that both share one workspace."""
    monkeypatch.setattr(neural, "_WORKSPACES", {})
    rng = np.random.default_rng(12)
    shapes = [ONE_TABLE, TWO_TABLES]
    models = [init_params(shape, 13 + k, init_range=0.5) for k, shape in enumerate(shapes)]
    kept = []
    for k, n in enumerate((15, 2, 0, 40, 1)):
        shape, params = shapes[k % 2], models[k % 2]
        item = make_item(shape, rng, n)
        grads = assert_bit_identical(params, [item], fixed_masks(params, [n], seed=k))
        features = neural.blstm_forward(params, item[0])
        assert features.shape == (n, 2 * params.hidden)
        if n == 0:
            assert not grads.buffer.any()
        kept.append((grads, grads.buffer.copy(), features, features.copy()))
    assert list(neural._WORKSPACES) == [(ONE_TABLE.hidden, 1)]
    assert neural._WORKSPACES[ONE_TABLE.hidden, 1].capacity == 40
    for grads, grads_then, features, features_then in kept:
        assert np.array_equal(grads.buffer, grads_then)
        assert np.array_equal(features, features_then)


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
        assert total == holder.buffer.size
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

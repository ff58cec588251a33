import errno
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from posecascade import cascade, data, nn, workers
from posecascade.errors import (
    ContractViolationError,
    InvalidArgumentError,
    ShapeError,
)
from posecascade.geometry import PoseTree

from conftest import file_with_param
from fdcheck import max_rel_error

LR = nn.TrainConfig(1).learning_rate  # the default rate of a training run


def fc_net(din, dout, seed=0):
    return nn.init_network([nn.FullyConnected(dout)], (din,), dout, seed)


# --- initialization -----------------------------------------------------------


def test_init_deterministic():
    a = nn.init_network([nn.Conv(4, 3), nn.ReLU(), nn.FullyConnected(5)], (6, 6, 1), 5, seed=42)
    b = nn.init_network([nn.Conv(4, 3), nn.ReLU(), nn.FullyConnected(5)], (6, 6, 1), 5, seed=42)
    for pa, pb in zip(a.params, b.params):
        if pa is None:
            continue
        assert np.array_equal(pa["w"], pb["w"])
        assert np.array_equal(pa["b"], pb["b"])


def test_init_shapes_fc():
    net = fc_net(4, 3)
    assert net.params[0]["w"].size == 12
    assert net.params[0]["b"].size == 3


def test_init_weight_std_matches_fan_in():
    net = fc_net(100, 100, seed=9)  # 10k weights, fan_in 100
    std = net.params[0]["w"].std()
    assert abs(std - 0.1) / 0.1 < 0.05
    assert np.all(net.params[0]["b"] == 0.0)


def test_init_rejects_bad_chain():
    with pytest.raises(ShapeError, match="layer 0"):
        nn.init_network([nn.Conv(2, 9)], (4, 4, 1), 8, seed=0)
    with pytest.raises(ShapeError):
        nn.init_network([nn.FullyConnected(3)], (4,), 5, seed=0)


# --- forward ------------------------------------------------------------------


def test_forward_identity_fc():
    net = fc_net(4, 4)
    net.params[0]["w"][:] = np.eye(4)
    net.params[0]["b"][:] = 0.0
    x = np.array([0.5, -1.0, 2.0, 7.0])
    out, _ = nn.forward(net, x[None])
    assert np.array_equal(out[0], x)


def test_forward_relu():
    # +0 for everything not > 0, -0 and NaN included (runs of -0 as well)
    x = np.r_[-1.0, 2.0, 0.0, -0.0, np.nan, np.inf, -np.inf, np.full(34, -0.0)]
    for dtype in (np.float32, np.float64):
        net = nn.init_network([nn.ReLU()], (41,), 41, seed=0, dtype=dtype)
        out, _ = nn.forward(net, x.astype(dtype)[None])
        assert np.array_equal(out[0], np.r_[0.0, 2.0, 0.0, 0.0, 0.0, np.inf, np.zeros(35)])
        assert not np.signbit(out).any()


def test_forward_conv_all_ones():
    net = nn.init_network([nn.Conv(1, 3)], (3, 3, 1), 1, seed=0)
    net.params[0]["w"][:] = 1.0
    net.params[0]["b"][:] = 0.25
    out, _ = nn.forward(net, np.ones((3, 3, 1))[None])
    assert out[0].shape == (1,)
    assert out[0][0] == pytest.approx(9.25)


def _naive_conv(x, w, b, stride):
    """Independent brute-force valid convolution."""
    h, wid, c = x.shape
    kh, kw, _, f = w.shape
    oh = (h - kh) // stride + 1
    ow = (wid - kw) // stride + 1
    out = np.zeros((oh, ow, f))
    for i in range(oh):
        for j in range(ow):
            for ff in range(f):
                acc = b[ff]
                for a in range(kh):
                    for bb in range(kw):
                        for cc in range(c):
                            acc += x[i * stride + a, j * stride + bb, cc] * w[a, bb, cc, ff]
                out[i, j, ff] = acc
    return out


def test_forward_conv_matches_naive():
    rng = np.random.default_rng(3)
    for stride in (1, 2):
        net = nn.init_network([nn.Conv(3, 3, stride=stride)], (7, 8, 2),
                              3 * ((7 - 3) // stride + 1) * ((8 - 3) // stride + 1), seed=5)
        x = rng.random((7, 8, 2))
        out, _ = nn.forward(net, x[None])
        want = _naive_conv(x, net.params[0]["w"], net.params[0]["b"], stride)
        assert np.allclose(out[0], want.reshape(-1), atol=1e-12)


def _naive_maxpool(x, size, stride):
    """Max pool by loops over (n, h, w, c): the pooled map and, per window,
    the input pixel (row, column) of its first maximal cell in row-major order."""
    n, h, w, c = x.shape
    oh, ow = (h - size) // stride + 1, (w - size) // stride + 1
    y = np.empty((n, oh, ow, c), x.dtype)
    winner = np.empty((n, oh, ow, c, 2), int)
    for b, i, j, ch in np.ndindex(n, oh, ow, c):
        window = x[b, i * stride : i * stride + size, j * stride : j * stride + size, ch]
        wi, wj = np.unravel_index(np.argmax(window), window.shape)
        y[b, i, j, ch] = window[wi, wj]
        winner[b, i, j, ch] = (i * stride + wi, j * stride + wj)
    return y, winner


def test_forward_maxpool_fast_path_matches_naive_loops():
    # stride 0 means a stride equal to the size: MaxPool(2) is MaxPool(2, stride=2)
    x = np.random.default_rng(4).random((2, 10, 10, 3))
    want, _ = _naive_maxpool(x, 2, 2)
    for pool in (nn.MaxPool(2), nn.MaxPool(2, stride=2)):
        net = nn.init_network([pool], (10, 10, 3), 75, seed=0)
        out, _ = nn.forward(net, x)
        assert np.array_equal(out, want.reshape(2, -1))


def _planes(a):
    """An (n, h, w, c) array as the engine's (c*n, h, w) pooling planes."""
    return np.ascontiguousarray(a.transpose(3, 0, 1, 2)).reshape(-1, *a.shape[1:3])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hw", [(8, 8), (7, 9), (9, 6)])
def test_maxpool2_output_and_input_grad_bit_identical_to_loops(hw, dtype):
    # small integers tie often; the gradient must follow the row-major first
    # max, and integer g keeps the sums of overlapping windows exact
    rng = np.random.default_rng(21)
    x = rng.integers(-2, 3, size=(3,) + hw + (2,)).astype(dtype)
    planes = _planes(x)
    for size, stride in ((2, 2), (3, 2)):  # disjoint windows, overlapping windows
        want_y, winner = _naive_maxpool(x, size, stride)
        g = rng.integers(-4, 5, size=want_y.shape).astype(dtype)
        want_dx = np.zeros_like(x)
        for idx in np.ndindex(g.shape):
            hh, ww = winner[idx]
            want_dx[idx[0], hh, ww, idx[3]] += g[idx]

        y = nn._maxpool(planes, size, stride)
        dx = nn._maxpool_grad(planes, y, _planes(g), size, stride)
        assert y.dtype == dx.dtype == dtype
        assert np.array_equal(y, _planes(want_y))
        assert dx.shape == planes.shape and np.array_equal(dx, _planes(want_dx))
        net = nn.init_network([nn.MaxPool(size, stride)], x.shape[1:], want_y[0].size, seed=0,
                              dtype=dtype)
        assert np.array_equal(nn.forward(net, x)[0], want_y.reshape(len(x), -1))


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_input_grad_matches_naive_scatter(stride):
    # integer values keep every sum exact, so any summation order agrees
    rng = np.random.default_rng(22)
    n, h, w, c, f, k = 2, 9, 8, 3, 4, 3
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    wt = rng.integers(-3, 4, size=(k, k, c, f)).astype(float)
    g = rng.integers(-3, 4, size=(n, oh, ow, f)).astype(float)
    want = np.zeros((n, h, w, c))
    for b, i, j, a, bb in np.ndindex(n, oh, ow, k, k):
        want[b, i * stride + a, j * stride + bb] += wt[a, bb] @ g[b, i, j]
    got = nn._conv_input_grad(g.transpose(3, 0, 1, 2).copy(), wt, (c, n, h, w), stride)
    assert np.array_equal(got, want.transpose(3, 0, 1, 2))


def test_forward_maxpool_odd_input_drops_remainder():
    x = np.arange(25, dtype=float).reshape(1, 5, 5, 1)
    net = nn.init_network([nn.MaxPool(2)], (5, 5, 1), 4, seed=0)
    out, _ = nn.forward(net, x)
    assert np.array_equal(out.reshape(2, 2), [[6, 8], [16, 18]])


def test_forward_lrn_matches_naive():
    spec = nn.LRN(depth=5, k_const=2.0, alpha=1e-4, beta=0.75)
    net = nn.init_network([spec], (2, 2, 7), 28, seed=0)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 2, 7))
    out, _ = nn.forward(net, x[None])
    want = np.zeros_like(x)
    r = spec.depth // 2
    for i in range(2):
        for j in range(2):
            for c in range(7):
                lo, hi = max(0, c - r), min(6, c + r)
                s = sum(x[i, j, q] ** 2 for q in range(lo, hi + 1))
                want[i, j, c] = x[i, j, c] / (spec.k_const + spec.alpha * s) ** spec.beta
    assert np.allclose(out[0], want.reshape(-1), atol=1e-12)


def test_lrn_window_sum_is_accurate_in_float32():
    # conv1's squares at a training slice of 8: a window sum taken as a
    # difference of prefix sums cancels large prefixes, one summed
    # directly stays within a few ulps
    x = np.random.default_rng(9).normal(size=(8, 8, 56, 56)).astype(np.float32)
    s = x * x
    r = nn.LRN().depth // 2
    s64 = s.astype(np.float64)
    want = np.stack([s64[max(0, ch - r) : ch + r + 1].sum(axis=0) for ch in range(len(s))])
    got = nn._lrn_window_sum(s, r)
    assert got.dtype == np.float32
    assert np.max(np.abs(got - want) / want) <= 1e-6


def test_lrn_depth_beyond_the_channels_costs_no_more_than_the_whole_window():
    # a model file can name any depth; a window past every channel is the
    # same window as one of 2c+1, and sums no more shifts
    x = np.random.default_rng(10).normal(size=(2, 5, 4, 1))
    g = np.random.default_rng(11).normal(size=(2, 4 * 3 * 3))
    results = []
    for depth in (2 * 3 + 1, 10**9):
        net = nn.init_network([nn.Conv(3, 2), nn.LRN(depth=depth, alpha=0.01)], (5, 4, 1),
                              4 * 3 * 3, seed=0)
        t0 = time.perf_counter()
        out, cache = nn.forward(net, x, train_mode=True)
        grads = nn.backward(net, cache, g)
        assert time.perf_counter() - t0 < 2.0
        results.append((out, grads[0]["w"]))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


@pytest.mark.parametrize("consts", [
    {"k_const": 0, "alpha": 0},  # a zero scale: x / 0^beta
    {"k_const": -2},
    {"beta": float("nan")},
    {"alpha": -1},  # large activations would turn the scale negative
    {"k_const": float("inf")},
], ids=["k_zero", "k_negative", "beta_nan", "alpha_negative", "k_inf"])
def test_lrn_rejects_constants_that_leave_scale_not_positive(consts):
    with pytest.raises(InvalidArgumentError, match="LRN needs finite k_const > 0"):
        nn.spec_from_dict({"kind": "lrn", "depth": 5, **consts})
    # k > 0 alone keeps the scale positive
    nn.spec_from_dict({"kind": "lrn", "depth": 5, "k_const": 1e-9, "alpha": 0, "beta": 0})


def test_forward_shape_mismatch():
    net = fc_net(4, 2)
    with pytest.raises(ShapeError):
        nn.forward(net, np.ones(5))
    with pytest.raises(ShapeError):  # one example without its batch axis
        nn.forward(net, np.ones(4))


def test_forward_batch_and_single_agree():
    net = nn.init_network([nn.Conv(2, 3), nn.ReLU(), nn.FullyConnected(4)], (6, 6, 1), 4, seed=1)
    rng = np.random.default_rng(0)
    xs = rng.random((3, 6, 6, 1))
    batch, _ = nn.forward(net, xs)
    for i in range(3):
        single, _ = nn.forward(net, xs[i][None])
        assert np.allclose(batch[i], single[0], atol=1e-12)


def test_dropout_identity_at_inference():
    net = nn.init_network([nn.Dropout(0.4)], (5,), 5, seed=0)
    x = np.arange(5.0)
    out, _ = nn.forward(net, x[None], train_mode=False)
    assert np.array_equal(out[0], x)


def test_dropout_train_scales_by_keep():
    net = nn.init_network([nn.Dropout(0.5)], (1000,), 1000, seed=0)
    x = np.ones(1000)
    out, _ = nn.forward(net, x[None], train_mode=True, rng=np.random.default_rng(3))
    kept = out[0][out[0] != 0]
    assert np.allclose(kept, 2.0)  # inverted scaling
    assert 350 < kept.size < 650


def test_dropout_train_requires_rng():
    net = nn.init_network([nn.Dropout(0.5)], (4,), 4, seed=0)
    with pytest.raises(InvalidArgumentError):
        nn.forward(net, np.ones(4)[None], train_mode=True)


def test_dropout_rejects_a_keep_that_is_zero_in_float32():
    # 1e-46 is below float32's smallest subnormal: a stage net would scale by 1/0
    with pytest.raises(InvalidArgumentError, match="nonzero in float32"):
        nn.Dropout(1e-46)
    assert nn.Dropout(1e-45).keep_prob == 1e-45  # float32 1.4e-45, still positive


def test_spatial_dropout_draws_its_mask_in_input_layout():
    # the engine's channel-major activations must not change the rng stream
    net = nn.init_network([nn.Dropout(0.5)], (3, 4, 2), 24, seed=0)
    x = np.arange(1.0, 49.0).reshape(2, 3, 4, 2)
    out, _ = nn.forward(net, x, train_mode=True, rng=np.random.default_rng(5))
    keep = np.random.default_rng(5).random(x.shape) < 0.5
    assert np.array_equal(out, (x * keep / 0.5).reshape(2, -1))


def test_forward_deterministic_given_seed():
    net = nn.init_network([nn.FullyConnected(8), nn.Dropout(0.5), nn.FullyConnected(4)],
                          (6,), 4, seed=2)
    x = np.random.default_rng(0).random(6)
    a, _ = nn.forward(net, x[None], train_mode=True, rng=np.random.default_rng(77))
    b, _ = nn.forward(net, x[None], train_mode=True, rng=np.random.default_rng(77))
    assert np.array_equal(a[0], b[0])


# --- loss ---------------------------------------------------------------------


def test_l2_loss_zero_when_equal():
    pred = np.array([1.0, 2.0, 3.0, 4.0])
    loss, (grad,) = nn.l2_loss_batch(pred[None], pred[None], np.array([[True, True]]))
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_l2_loss_hand_value():
    loss, (grad,) = nn.l2_loss_batch(np.array([[3.0, 4.0]]), np.zeros((1, 2)), np.array([[True]]))
    assert loss == pytest.approx(25.0)
    assert np.allclose(grad, [6.0, 8.0])


def test_l2_loss_masked_joint_omitted():
    pred = np.array([3.0, 4.0, 100.0, 100.0])
    target = np.zeros(4)
    loss, (grad,) = nn.l2_loss_batch(pred[None], target[None], np.array([[True, False]]))
    assert loss == pytest.approx(25.0)
    assert np.array_equal(grad[2:], [0.0, 0.0])


def test_l2_loss_shape_check():
    with pytest.raises(ShapeError):
        nn.l2_loss_batch(np.zeros((1, 4)), np.zeros((1, 4)), np.zeros((1, 3), dtype=bool))
    with pytest.raises(ShapeError):  # no batch axis
        nn.l2_loss_batch(np.zeros(4), np.zeros(4), np.zeros(2, dtype=bool))


def test_l2_loss_batch_is_mean():
    pred = np.array([[3.0, 4.0], [0.0, 0.0]])
    target = np.zeros((2, 2))
    mask = np.ones((2, 1), dtype=bool)
    loss, grad = nn.l2_loss_batch(pred, target, mask)
    assert loss == pytest.approx(12.5)
    assert np.allclose(grad[0], [3.0, 4.0])  # 2 * diff / n


# --- backward -----------------------------------------------------------------


def test_backward_zero_grad_gives_zero():
    net = nn.init_network([nn.Conv(2, 3), nn.ReLU(), nn.FullyConnected(3)], (5, 5, 1), 3, seed=2)
    out, cache = nn.forward(net, np.random.default_rng(0).random((5, 5, 1))[None], train_mode=True)
    grads = nn.backward(net, cache, np.zeros_like(out))
    for g in grads:
        if g is not None:
            assert np.all(g["w"] == 0.0) and np.all(g["b"] == 0.0)


def test_backward_linear_layer_gradient():
    net = fc_net(2, 1)
    x = np.array([1.0, 2.0])
    out, cache = nn.forward(net, x[None], train_mode=True)
    grads = nn.backward(net, cache, np.array([1.0])[None])  # loss = w . x + b
    assert np.allclose(grads[0]["w"].reshape(-1), [1.0, 2.0])
    assert np.allclose(grads[0]["b"], [1.0])


def test_backward_stale_cache_rejected():
    net = fc_net(3, 2)
    out, cache = nn.forward(net, np.ones(3)[None], train_mode=True)
    state = nn.OptimizerState.for_network(net, LR)
    grads = nn.backward(net, cache, np.ones(2)[None])
    nn.adagrad_step(net, grads, state)
    with pytest.raises(ContractViolationError):
        nn.backward(net, cache, np.ones(2)[None])


def test_backward_finite_difference_small_net():
    rng = np.random.default_rng(11)
    net = nn.init_network(
        [nn.Conv(3, 3, stride=2), nn.ReLU(), nn.MaxPool(2), nn.Conv(4, 2), nn.ReLU(),
         nn.FullyConnected(6)],
        (13, 13, 2), 6, seed=7,
    )
    x = rng.random((13, 13, 2))
    target = rng.random(6)
    mask = np.array([True, False, True])
    assert max_rel_error(net, x, target, mask) < 1e-4


@pytest.mark.parametrize("pool", [nn.MaxPool(2), nn.MaxPool(2, stride=3)])
def test_backward_maxpool_ties_route_to_first(pool):
    # A 1x1 conv with weights (1, 1) maps distinct 2-channel inputs onto equal
    # pooled values; the conv weight gradient then reveals which tied cell the
    # pool routed to. Row-major first cell must win, at stride 2 and at a
    # stride that leaves gaps between windows.
    net = nn.init_network([nn.Conv(1, 1), pool], (2, 2, 2), 1, seed=0)
    net.params[0]["w"][:] = 1.0
    net.params[0]["b"][:] = 0.0
    x = np.array([[[0.0, 3.0], [3.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]]])
    out, cache = nn.forward(net, x[None], train_mode=True)
    assert out[0][0] == 3.0  # all four cells tie at 3.0
    grads = nn.backward(net, cache, np.array([1.0])[None])
    assert np.allclose(grads[0]["w"].reshape(-1), [0.0, 3.0])  # cell (0, 0) won


@pytest.mark.parametrize("layers", [
    [nn.Conv(3, 3), nn.ReLU(), nn.MaxPool(2), nn.FullyConnected(5)],
    [nn.FullyConnected(6), nn.Dropout(0.5), nn.FullyConnected(5)],
])
def test_backward_refuses_inference_forward(layers):
    # only a train-mode forward keeps what backward reads
    net = nn.init_network(layers, (7, 7, 2), 5, seed=23)
    x = np.random.default_rng(24).random((3, 7, 7, 2))
    out, cache = nn.forward(net, x)
    assert cache is None and out.shape == (3, 5)
    with pytest.raises(ContractViolationError):
        nn.backward(net, cache, np.ones_like(out))


def test_conv_bias_grad_float32_sum_is_accurate():
    # conv1 of the default stack at batch 128 sums 128 * 56 * 56 = 401,408
    # output-gradient terms per filter; a 1x1 conv over 56x56 has the same count
    rng = np.random.default_rng(32)
    net = nn.init_network([nn.Conv(8, 1)], (56, 56, 1), 56 * 56 * 8, seed=0, dtype=np.float32)
    out, cache = nn.forward(net, rng.random((128, 56, 56, 1)), train_mode=True)
    # off-centre terms: partial sums grow, so a term-by-term sum loses bits
    g = (rng.random(out.shape) - 0.25).astype(np.float32)
    b = nn.backward(net, cache, g)[0]["b"]
    g64 = g.astype(np.float64).reshape(128, 56, 56, 8)
    assert b.dtype == np.float32
    err = np.abs(b - g64.sum(axis=(0, 1, 2)))
    assert np.all(err <= 1e-6 * np.abs(g64).sum(axis=(0, 1, 2)))


@pytest.mark.parametrize("layers, input_size", [
    ([nn.ReLU(), nn.FullyConnected(2)], (4,)),
    ([nn.Dropout(0.5), nn.ReLU(), nn.Conv(1, 1)], (4, 4, 1)),  # the engine's entry is a view
])
def test_relu_leaves_callers_input_unchanged(layers, input_size):
    # the ReLU zeroes its input in place, but never the callers' array
    x = np.random.default_rng(36).standard_normal((3,) + input_size)
    before = x.copy()
    out_dim = int(np.prod(nn.chain_shapes(layers, input_size)[-1]))
    net = nn.init_network(layers, input_size, out_dim, seed=0)
    nn.forward(net, x)
    assert np.array_equal(x, before) and (x < 0).any()


def _x5(x):
    """(m, h, w) planes without an odd last row or column as (m, oh, 2, ow, 2)
    2x2 windows."""
    m, h, w = x.shape
    return x[:, : h // 2 * 2, : w // 2 * 2].reshape(m, h // 2, 2, w // 2, 2)


def _cells(x5):
    """The four (m, oh, ow) cell views of (m, oh, 2, ow, 2) 2x2 windows, in
    row-major order."""
    return [x5[:, :, i, :, j] for i in (0, 1) for j in (0, 1)]


def _winner_search_maxpool2_grad(x, g):
    """The 2x2 pool input gradient over planes x as found from the windows
    alone (each window's winner searched again): the reference for the
    pooled-map version."""
    x5 = _x5(x)
    m, oh, _, ow, _ = x5.shape
    g = g.reshape(m, oh, ow)
    a, b, cc, d = _cells(x5)
    bottom = np.maximum(cc, d) > np.maximum(a, b)
    right = d > cc
    right &= bottom
    right |= ~bottom & (b > a)
    arg = right.view(np.uint8)
    arg += 2 * bottom.view(np.uint8)
    buf = np.empty(x5.shape, g.dtype)
    for cell, dst in enumerate(_cells(buf)):
        np.multiply(g, arg == cell, out=dst)
    full = np.zeros(x.shape, g.dtype)
    full[:, : 2 * oh, : 2 * ow] = buf.reshape(m, 2 * oh, 2 * ow)
    return full


@pytest.mark.parametrize("batch", [9, 128])
@pytest.mark.parametrize("hw", [(9, 9), (10, 8)])  # an even and an odd pool input
def test_maxpool2_grad_from_pooled_map_matches_winner_search(batch, hw, monkeypatch):
    # small integers tie often and give windows whose max is <= 0; the ReLU
    # after the pool zeroes its map in place, which the pool backward reads
    rng = np.random.default_rng(35)
    layers = [nn.Conv(3, 2), nn.ReLU(), nn.MaxPool(2)]
    in_size = hw + (2,)
    out_dim = int(np.prod(nn.chain_shapes(layers, in_size)[-1]))
    net = nn.init_network(layers, in_size, out_dim, seed=0, dtype=np.float32)
    net.params[0]["w"][:] = rng.integers(-1, 2, net.params[0]["w"].shape)
    net.params[0]["b"][:] = [0.0, -1.0, -0.0]
    x = rng.integers(-2, 2, (batch,) + in_size).astype(np.float32)
    x[rng.random(x.shape) < 0.1] = -0.0
    g = rng.standard_normal((batch, out_dim)).astype(np.float32)
    g[rng.random(g.shape) < 0.1] = -0.0

    def run(pool_grad):
        seen = []

        def record(*args):
            seen.append(pool_grad(*args))
            return seen[-1]

        monkeypatch.setattr(nn, "_maxpool_grad", record)
        out, cache = nn.forward(net, x, train_mode=True)
        planes = cache.layer_caches[2]["x"]
        return out, planes, nn.backward(net, cache, g), seen

    out, planes, grads, dx = run(nn._maxpool_grad)
    out_ref, _, grads_ref, dx_ref = run(
        lambda x, y, g, size, stride: _winner_search_maxpool2_grad(x, g))
    x5 = _x5(planes)
    top = x5.max(axis=(2, 4), keepdims=True)
    assert ((x5 == top).sum(axis=(2, 4)) > 1).any(), "test data needs tied windows"
    assert (top <= 0).any() and (top > 0).any()

    def same_bits(a, b):
        return (a.dtype == b.dtype and np.array_equal(a, b)
                and np.array_equal(np.signbit(a), np.signbit(b)))

    assert same_bits(out, out_ref) and not np.signbit(out).any()  # the ReLU writes +0
    assert len(dx) == len(dx_ref) == 1 and same_bits(dx[0], dx_ref[0])
    assert np.any(dx[0] != 0) and np.any(np.signbit(dx[0]) & (dx[0] == 0))
    assert all(same_bits(grads[0][k], grads_ref[0][k]) for k in ("w", "b"))


def _ref_forward(spec, p, x):
    """One layer's forward by loops over (n, h, w, c)."""
    if isinstance(spec, nn.Conv):
        return np.stack([_naive_conv(xb, p["w"], p["b"], spec.stride) for xb in x])
    if isinstance(spec, nn.ReLU):
        return np.maximum(x, 0)
    if isinstance(spec, nn.MaxPool):
        return _naive_maxpool(x, spec.size, spec.effective_stride)[0]
    if isinstance(spec, nn.LRN):
        scale = _ref_lrn_scale(spec, x)
        return x * scale ** -spec.beta
    if isinstance(spec, nn.FullyConnected):
        return x.reshape(len(x), -1) @ p["w"] + p["b"]
    raise AssertionError(spec)


def _ref_lrn_scale(spec, x):
    r, c = spec.depth // 2, x.shape[-1]
    scale = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        ch = idx[-1]
        window = x[idx[:-1]][max(0, ch - r) : min(c, ch + r + 1)]
        scale[idx] = spec.k_const + spec.alpha * (window**2).sum()
    return scale


def _ref_backward(spec, p, x, g):
    """One layer's (input gradient, parameter gradients) by loops."""
    if isinstance(spec, nn.Conv):
        kk, s = spec.size, spec.stride
        dx, dw = np.zeros_like(x), np.zeros_like(p["w"])
        for b, i, j, a, bb in np.ndindex(g.shape[:3] + (kk, kk)):
            patch = x[b, i * s + a, j * s + bb]  # (c,)
            dw[a, bb] += np.outer(patch, g[b, i, j])
            dx[b, i * s + a, j * s + bb] += p["w"][a, bb] @ g[b, i, j]
        return dx, {"w": dw, "b": g.sum(axis=(0, 1, 2))}
    if isinstance(spec, nn.ReLU):
        return g * (x > 0), None
    if isinstance(spec, nn.MaxPool):
        _, winner = _naive_maxpool(x, spec.size, spec.effective_stride)
        dx = np.zeros_like(x)
        for idx in np.ndindex(g.shape):
            hh, ww = winner[idx]
            dx[idx[0], hh, ww, idx[3]] += g[idx]
        return dx, None
    if isinstance(spec, nn.LRN):
        r, c = spec.depth // 2, x.shape[-1]
        scale = _ref_lrn_scale(spec, x)
        dx = g * scale ** -spec.beta
        for idx in np.ndindex(x.shape):
            ch = idx[-1]
            for q in range(max(0, ch - r), min(c, ch + r + 1)):  # outputs whose window holds ch
                out = idx[:-1] + (q,)
                dx[idx] -= (2 * spec.alpha * spec.beta * g[out] * x[out]
                            * scale[out] ** (-spec.beta - 1) * x[idx])
        return dx, None
    if isinstance(spec, nn.FullyConnected):
        flat = x.reshape(len(x), -1)
        return (g @ p["w"].T).reshape(x.shape), {"w": flat.T @ g, "b": g.sum(axis=0)}
    raise AssertionError(spec)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("layers, input_size", [
    ([nn.Conv(3, 3), nn.Conv(2, 2, stride=2)], (9, 8, 2)),  # conv at stride 1 and 2
    ([nn.Conv(2, 2), nn.ReLU(), nn.MaxPool(2)], (8, 10, 1)),  # 2x2 pool over 7x9
    ([nn.Conv(2, 2), nn.MaxPool(3, 2), nn.ReLU()], (10, 9, 3)),  # 3x3/2 pool, shared winners
    ([nn.Conv(3, 2, stride=2), nn.ReLU(), nn.FullyConnected(4)], (7, 6, 2)),  # flatten order
    ([nn.Conv(5, 2), nn.LRN(depth=3, k_const=2.0, alpha=0.01, beta=0.75)], (5, 6, 2)),
    ([nn.Conv(2, 2), nn.MaxPool(2, 3)], (9, 10, 2)),  # gap rows and columns between windows
    ([nn.Conv(2, 2), nn.MaxPool(2, 1)], (6, 7, 2)),  # windows overlap at stride 1
    ([nn.Conv(2, 2), nn.ReLU(), nn.MaxPool(3, 2)], (10, 9, 3)),  # ReLU run after a 3x3/2 pool
    ([nn.Conv(2, 2), nn.MaxPool(1)], (5, 4, 2)),  # one-cell windows
    ([nn.Conv(2, 2), nn.LRN(depth=5, alpha=0.01)], (5, 6, 2)),  # window wider than the channels
    ([nn.Conv(3, 2), nn.LRN(depth=1, alpha=0.01)], (5, 6, 2)),  # window of one channel
    ([nn.Conv(5, 2), nn.LRN(depth=4, alpha=0.01)], (5, 6, 2)),  # even depth: radius depth // 2
    ([nn.Conv(2, 2), nn.Conv(2, 2, stride=3)], (9, 10, 2)),  # stride > size: pixels with no gradient
])
def test_layers_match_naive_loops(layers, input_size, batch, dtype):
    # small integers keep every conv, pool and fc sum exact in any order, so
    # the engine must equal the loops bit for bit (LRN's powers are not exact)
    rng = np.random.default_rng(31)
    shapes = nn.chain_shapes(layers, input_size)
    out_dim = int(np.prod(shapes[-1]))
    net = nn.init_network(layers, input_size, out_dim, seed=0, dtype=dtype)
    for p in net.params:
        if p is not None:
            p["w"][:] = rng.integers(-2, 3, p["w"].shape)
            p["b"][:] = rng.integers(-2, 3, p["b"].shape)
    x = rng.integers(-3, 4, (batch,) + input_size).astype(dtype)
    g = rng.integers(-3, 4, (batch, out_dim)).astype(dtype)

    acts = [x.astype(np.float64)]
    for spec, p in zip(layers, net.params):
        acts.append(_ref_forward(spec, p, acts[-1]))
    want_grads, dy = [None] * len(layers), g.astype(np.float64).reshape(acts[-1].shape)
    for i in reversed(range(len(layers))):
        dy, want_grads[i] = _ref_backward(layers[i], net.params[i], acts[i], dy)

    out, cache = nn.forward(net, x, train_mode=True)
    grads = nn.backward(net, cache, g)
    exact = not any(isinstance(spec, nn.LRN) for spec in layers)
    rtol = 0 if exact else (1e-5 if dtype == np.float32 else 1e-12)
    check = (lambda a, b: np.array_equal(a, b)) if exact else (
        lambda a, b: np.allclose(a, b, rtol=rtol, atol=rtol * np.abs(b).max()))
    assert out.dtype == dtype and check(out, acts[-1].reshape(batch, -1))
    for got, want in zip(grads, want_grads):
        assert (got is None) == (want is None)
        if got is not None:
            assert got["w"].dtype == got["b"].dtype == dtype
            assert check(got["w"], want["w"]) and check(got["b"], want["b"])


# --- optimizer ----------------------------------------------------------------


def test_adagrad_zero_grad_no_change():
    net = fc_net(3, 2, seed=1)
    before = net.params[0]["w"].copy()
    state = nn.OptimizerState.for_network(net, learning_rate=0.1)
    nn.adagrad_step(net, net.zeroed_like(), state)
    assert np.array_equal(net.params[0]["w"], before)


def test_adagrad_first_step_magnitude():
    net = fc_net(1, 1, seed=1)
    net.params[0]["w"][:] = 0.0
    grads = net.zeroed_like()
    grads[0]["w"][:] = 4.0
    state = nn.OptimizerState.for_network(net, learning_rate=0.1)
    nn.adagrad_step(net, grads, state)
    assert net.params[0]["w"][0, 0] == pytest.approx(-0.1, abs=1e-8)


def test_adagrad_second_step_shrinks():
    net = fc_net(1, 1, seed=1)
    net.params[0]["w"][:] = 0.0
    grads = net.zeroed_like()
    grads[0]["w"][:] = 4.0
    state = nn.OptimizerState.for_network(net, learning_rate=0.1)
    nn.adagrad_step(net, grads, state)
    first = abs(net.params[0]["w"][0, 0])
    w_after_first = net.params[0]["w"][0, 0]
    nn.adagrad_step(net, grads, state)
    second = abs(net.params[0]["w"][0, 0] - w_after_first)
    assert second < first


# --- training loop -------------------------------------------------------------


def _toy_regression(n=10, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 4))
    w_true = rng.normal(size=(4, 2))
    y = x @ w_true
    masks = np.ones((n, 1), dtype=bool)
    return x, y, masks


def test_train_epochs_zero_epochs_no_change():
    x, y, m = _toy_regression()
    net = fc_net(4, 2, seed=3)
    before = net.params[0]["w"].copy()
    nn.train_epochs(net, x, y, m, nn.TrainConfig(epochs=0, seed=1))
    assert np.array_equal(net.params[0]["w"], before)


def test_train_epochs_deterministic():
    x, y, m = _toy_regression()
    nets = []
    for _ in range(2):
        net = fc_net(4, 2, seed=3)
        nn.train_epochs(net, x, y, m, nn.TrainConfig(epochs=5, batch_size=4,
                                                     learning_rate=0.05, seed=11))
        nets.append(net)
    assert np.array_equal(nets[0].params[0]["w"], nets[1].params[0]["w"])
    assert np.array_equal(nets[0].params[0]["b"], nets[1].params[0]["b"])


def test_train_epochs_rejects_empty():
    net = fc_net(4, 2)
    with pytest.raises(InvalidArgumentError):
        nn.train_epochs(net, np.zeros((0, 4)), np.zeros((0, 2)),
                        np.zeros((0, 1), dtype=bool), nn.TrainConfig(epochs=1))


def test_train_epochs_overfits_small_set():
    x, y, m = _toy_regression(n=10, seed=5)
    net = fc_net(4, 2, seed=4)
    initial = nn.l2_loss_batch(nn.forward(net, x)[0], y, m)[0]
    nn.train_epochs(net, x, y, m, nn.TrainConfig(epochs=1500, batch_size=10,
                                                 learning_rate=0.3, seed=2))
    final = nn.l2_loss_batch(nn.forward(net, x)[0], y, m)[0]
    assert final < 0.1 * initial
    assert final < 1e-3  # linearly solvable toy reaches near zero


def test_train_epochs_reports_progress():
    x, y, m = _toy_regression()
    net = fc_net(4, 2, seed=3)
    seen = []
    nn.train_epochs(net, x, y, m, nn.TrainConfig(epochs=3, seed=1),
                    progress=lambda e, loss: seen.append((e, loss)))
    assert [e for e, _ in seen] == [0, 1, 2]
    assert all(np.isfinite(loss) for _, loss in seen)


def test_train_epochs_frees_each_batch_before_the_next():
    # four batches must peak no higher than one: the previous batch's forward
    # cache may not live through the next forward
    rng = np.random.default_rng(37)
    net = nn.init_network([nn.Conv(8, 3), nn.ReLU(), nn.MaxPool(2), nn.FullyConnected(2)],
                          (20, 20, 1), 2, seed=0, dtype=np.float32)
    x = rng.random((64, 20, 20, 1)).astype(np.float32)
    targets, masks = rng.random((64, 2)), np.ones((64, 1), dtype=bool)

    def peak(n):
        tracemalloc.start()
        try:
            nn.train_epochs(net, x[:n], targets[:n], masks[:n], nn.TrainConfig(1, batch_size=16))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) < 1.1 * peak(16)


def _default_stack_net(dtype=np.float32, input_size=(60, 60, 1)):
    return nn.init_network(cascade.default_layers(0.6, 18), input_size, 18, seed=0, dtype=dtype)


def test_slice_size_follows_the_im2col_budget():
    # conv1's 5x5 im2col over 56x56 outputs is the largest: 313,600 float32
    # bytes per example
    assert nn._slice_size(_default_stack_net()) == nn.SLICE_BYTES // 313_600 == 8
    assert nn._slice_size(_default_stack_net(np.float64)) == nn.SLICE_BYTES // 627_200
    assert nn._slice_size(_default_stack_net(input_size=(120, 120, 1))) < 8
    assert nn._slice_size(fc_net(4, 2)) == 0  # no conv: the batch is one slice


def test_train_step_in_slices_matches_whole_batch_update(monkeypatch):
    # a batch of 37 in slices of 8 ends with a short slice of 5; the update
    # must be the whole batch's, dropout masks included
    layers = [nn.Conv(3, 3), nn.ReLU(), nn.MaxPool(2), nn.FullyConnected(6), nn.ReLU(),
              nn.Dropout(0.5), nn.FullyConnected(4)]
    rng = np.random.default_rng(41)
    x = rng.standard_normal((37, 10, 10, 2))
    targets = rng.uniform(-0.5, 0.5, (37, 4))
    masks = rng.random((37, 2)) < 0.8

    whole = nn.init_network(layers, (10, 10, 2), 4, seed=3)
    whole_state = nn.OptimizerState.for_network(whole, LR)
    out, cache = nn.forward(whole, x, train_mode=True, rng=np.random.default_rng(5))
    whole_loss, grad = nn.l2_loss_batch(out, targets, masks)
    nn.adagrad_step(whole, nn.backward(whole, cache, grad), whole_state)

    sliced = nn.init_network(layers, (10, 10, 2), 4, seed=3)
    state = nn.OptimizerState.for_network(sliced, LR)
    monkeypatch.setattr(nn, "SLICE_BYTES", 8 * 3 * 3 * 2 * 8 * 8 * 8)  # 8 examples
    forward, sizes = nn._FORWARD, []

    def counting_forward(net, xs, **kwargs):
        sizes.append(len(xs))
        return forward(net, xs, **kwargs)

    monkeypatch.setattr(nn, "_FORWARD", counting_forward)
    monkeypatch.delattr(os, "fork")  # every slice runs here, one after another
    with nn.slice_worker(sliced, x, targets, masks) as worker:
        loss = nn.train_step(sliced, state, x, targets, masks, np.arange(37), np.random.default_rng(5), worker)

    assert sizes == [8, 8, 8, 8, 5]
    assert loss == pytest.approx(whole_loss, rel=1e-12)
    for p, q, a, b in zip(sliced.params, whole.params, state.accum, whole_state.accum):
        if p is None:
            continue
        for key in ("w", "b"):
            # the accumulator holds the squared gradient, so it checks the scale
            np.testing.assert_allclose(a[key], b[key], rtol=1e-12, atol=0)
            np.testing.assert_allclose(p[key], q[key], rtol=1e-12, atol=0)


def _two_dropout_step(monkeypatch):
    """A stack with two dropout layers and a batch of 37 in slices of 8: five
    slices, the last of 5. Returns fresh (net, state) pairs and the step's inputs."""
    layers = [nn.Conv(3, 3), nn.ReLU(), nn.Dropout(0.7), nn.MaxPool(2), nn.FullyConnected(6),
              nn.ReLU(), nn.Dropout(0.5), nn.FullyConnected(4)]
    monkeypatch.setattr(nn, "SLICE_BYTES", 8 * 3 * 3 * 2 * 8 * 8 * 4)  # 8 examples
    rng = np.random.default_rng(47)
    x = rng.standard_normal((37, 10, 10, 2)).astype(np.float32)
    targets = rng.uniform(-0.5, 0.5, (37, 4))
    masks = rng.random((37, 2)) < 0.8

    def fresh():
        net = nn.init_network(layers, (10, 10, 2), 4, seed=3, dtype=np.float32)
        return net, nn.OptimizerState.for_network(net, LR)

    return fresh, x, targets, masks


def _assert_same_state(a, b):
    (net_a, state_a), (net_b, state_b) = a, b
    for p, q, u, v in zip(net_a.params, net_b.params, state_a.accum, state_b.accum):
        if p is None:
            continue
        for key in ("w", "b"):
            assert np.array_equal(p[key], q[key]) and np.array_equal(u[key], v[key])


def test_paired_slices_draw_the_stream_of_slices_run_one_by_one(monkeypatch):
    # every slice's dropout uniforms are drawn before any slice runs, slice by
    # slice and layer by layer: exactly what forwards run slice after slice draw
    fresh, x, targets, masks = _two_dropout_step(monkeypatch)
    (net, state), paired = fresh(), fresh()
    rng, summed, total = np.random.default_rng(5), None, 0.0
    with nn.one_blas_thread():  # BLAS pinned, as for the paired step
        for lo in range(0, 37, 8):
            out, cache = nn.forward(net, x[lo : lo + 8], train_mode=True, rng=rng)
            loss, grad = nn.l2_loss_batch(out, targets[lo : lo + 8], masks[lo : lo + 8])
            grad *= len(out) / 37
            grads = nn.backward(net, cache, grad)
            summed = grads if summed is None else [
                None if a is None else {k: a[k] + g[k] for k in a} for a, g in zip(summed, grads)]
            total += loss * len(out)
        nn.adagrad_step(net, summed, state)
    with nn.slice_worker(paired[0], x, targets, masks) as worker:  # the worker process
        paired_loss = nn.train_step(*paired, x, targets, masks, np.arange(37),
                                    np.random.default_rng(5), worker)
    assert paired_loss == total / 37
    _assert_same_state(paired, (net, state))


def test_train_step_rows_pick_the_batch(monkeypatch):
    # rows gathers each slice from the full arrays: the step of the copied batch
    fresh, x, targets, masks = _two_dropout_step(monkeypatch)
    rows = np.random.default_rng(9).permutation(37)[:29]
    copied, picked = fresh(), fresh()
    batch = x[rows], targets[rows], masks[rows]
    with nn.slice_worker(copied[0], *batch) as worker:
        copied_loss = nn.train_step(*copied, *batch, np.arange(len(rows)), np.random.default_rng(5), worker)
    with nn.slice_worker(picked[0], x, targets, masks) as worker:
        picked_loss = nn.train_step(*picked, x, targets, masks, rows, np.random.default_rng(5), worker)
    assert picked_loss == copied_loss
    _assert_same_state(picked, copied)


def test_backward_into_adds_the_same_bits_as_summing_after():
    net = nn.init_network([nn.Conv(3, 3), nn.ReLU(), nn.MaxPool(2), nn.FullyConnected(6),
                           nn.FullyConnected(4)], (10, 10, 2), 4, seed=3, dtype=np.float32)
    rng = np.random.default_rng(13)
    first, second = (nn.forward(net, rng.standard_normal((5, 10, 10, 2)), train_mode=True)
                     for _ in range(2))
    grad = rng.standard_normal((5, 4))
    into = nn.backward(net, first[1], grad)
    summed = [None if g is None else {k: v.copy() for k, v in g.items()} for g in into]
    for acc, g in zip(summed, nn.backward(net, second[1], grad)):
        if acc is not None:
            acc["w"] += g["w"]
            acc["b"] += g["b"]
    assert nn.backward(net, second[1], grad, into) is into
    for acc, g in zip(summed, into):
        assert (acc is None) == (g is None)
        if acc is not None:
            assert np.array_equal(acc["w"], g["w"]) and np.array_equal(acc["b"], g["b"])


def test_one_blas_thread_pins_and_restores_the_count(monkeypatch, tmp_path):
    if nn._BLAS_THREADS is not None:
        get, put = nn._BLAS_THREADS
        fresh, x, targets, masks = _two_dropout_step(monkeypatch)
        model = cascade.CascadeModel([nn.init_network([nn.FullyConnected(4)], (6, 6, 1), 4, seed=5,
                                                      dtype=np.float32)],
                                     [None], 1.0, PoseTree(2, [], []), (6, 6, 1))
        log, forward = tmp_path / "forwards", nn.forward

        def counting(*args, **kwargs):  # each process appends its (pid, BLAS threads) per forward
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {get()}\n")
            return forward(*args, **kwargs)

        def seen():
            return [tuple(int(v) for v in line.split()) for line in log.read_text().splitlines()]

        monkeypatch.setattr(nn, "_FORWARD", counting)  # train_step's slices, in both processes
        monkeypatch.setattr(nn, "forward", counting)  # cascade.predict
        before = get()
        put(2)
        try:
            with nn.one_blas_thread() as pinned:
                assert pinned and get() == 1
            assert get() == 2
            net, state = fresh()
            with nn.slice_worker(net, x, targets, masks) as worker:  # forked at 2 BLAS threads
                nn.train_step(net, state, x, targets, masks, np.arange(37), np.random.default_rng(5), worker)
            assert len(seen()) == 5 and len({pid for pid, _ in seen()}) == 2 and get() == 2
            cascade.predict(model, np.zeros((8, 8, 1)))
            assert len(seen()) == 6 and get() == 2
            assert all(threads == 1 for _, threads in seen())
        finally:
            put(before)
    # a BLAS without the thread-count calls is left as it is
    monkeypatch.setattr(nn, "_BLAS_THREADS", None)
    with nn.one_blas_thread() as pinned:
        assert not pinned


def test_blas_kernel_names_the_kernel_openblas_runs(monkeypatch):
    if "DYNAMIC_ARCH" in str(np.show_config(mode="dicts")) and nn.blas_kernel() != "unknown":
        # a DYNAMIC_ARCH OpenBLAS takes the kernel OPENBLAS_CORETYPE names when it loads
        src = str(Path(nn.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", "from posecascade import nn; print(nn.blas_kernel())"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.stdout == "Sandybridge\n", proc.stderr
    monkeypatch.setattr(nn, "_OPENBLAS", None)  # another BLAS, or another numpy layout
    assert nn.blas_kernel() == "unknown"


def test_train_step_memory_does_not_grow_with_the_batch(monkeypatch, tmp_path):
    # a batch of 128 runs in slices, so it peaks little above a batch of 16.
    # Run without a fork, one slice after another on this thread, the peaks
    # do not depend on how the processes are scheduled; paired, the caller
    # runs half the slices, and the worker process holds one slice at a time.
    net = _default_stack_net()
    rng = np.random.default_rng(43)
    x = rng.random((128, 60, 60, 1)).astype(np.float32)
    targets, masks = rng.uniform(-0.5, 0.5, (128, 18)), np.ones((128, 9), dtype=bool)

    def peak(n, worker):
        state = nn.OptimizerState.for_network(net, LR)
        tracemalloc.start()
        try:
            nn.train_step(net, state, x, targets, masks, np.arange(n), np.random.default_rng(0), worker)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with monkeypatch.context() as no_fork:
        no_fork.delattr(os, "fork")
        with nn.slice_worker(net, x, targets, masks) as worker:
            inline = {n: peak(n, worker) for n in (8, 16, 128)}
    assert inline[128] < 1.3 * inline[16]

    # the worker traces from its first forward on and logs its peak after each backward
    parent, log, forward, backward = os.getpid(), tmp_path / "worker_peaks", nn._FORWARD, nn._BACKWARD

    def traced_forward(*args, **kwargs):
        if os.getpid() != parent and not tracemalloc.is_tracing():
            tracemalloc.start()
        return forward(*args, **kwargs)

    def logged_backward(*args, **kwargs):
        grads = backward(*args, **kwargs)
        if os.getpid() != parent:
            with open(log, "a") as f:
                f.write(f"{tracemalloc.get_traced_memory()[1]}\n")
        return grads

    monkeypatch.setattr(nn, "_FORWARD", traced_forward)
    monkeypatch.setattr(nn, "_BACKWARD", logged_backward)
    with nn.slice_worker(net, x, targets, masks) as worker:
        assert peak(128, worker) < inline[128] + inline[8]  # 8 examples: one slice
    worker_peaks = [int(v) for v in log.read_text().split()]
    # a one-slice step's peak, as run here, and below a two-slice step's: one slice at a time
    assert len(worker_peaks) == 8 and max(worker_peaks) < inline[16]


# --- the worker process ----------------------------------------------------------


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _reaped(pid: int) -> bool:
    """Whether pid is no process, not even a zombie left to wait for."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_train_epochs_on_the_worker_process_gives_the_bits_of_one_thread(monkeypatch, forks, time_bound):
    # batches of 16 in slices of 8 pair every batch but the last; without
    # os.fork the same run goes inline, one slice after another
    fresh, x, targets, masks = _two_dropout_step(monkeypatch)
    config = nn.TrainConfig(epochs=2, batch_size=16, seed=3)
    (net, _), (inline, _) = fresh(), fresh()
    own = [p["w"] for p in net.params if p is not None]
    nn.train_epochs(net, x, targets, masks, nn.TrainConfig(epochs=0, batch_size=16, seed=3))
    assert not forks  # no step to run
    nn.train_epochs(net, x, targets, masks, config)
    assert len(forks) == 1 and [p["w"] for p in net.params if p is not None] == own  # the same arrays
    monkeypatch.delattr(os, "fork")
    nn.train_epochs(inline, x, targets, masks, config)
    assert len(forks) == 1
    for p, q in zip(net.params, inline.params):
        if p is not None:
            assert np.array_equal(p["w"], q["w"]) and np.array_equal(p["b"], q["b"])


def _prediction_set():
    """A one-stage cascade and twice PREDICT_FORK_MIN examples, enough that
    predict_many forks."""
    model = cascade.CascadeModel([nn.init_network([nn.FullyConnected(4)], (6, 6, 1), 4, seed=5,
                                                  dtype=np.float32)],
                                 [None], 1.0, PoseTree(2, [], []), (6, 6, 1))
    rng = np.random.default_rng(8)
    return model, [data.LoadedExample(rng.random((8, 8, 1)), None, None, f"mem_{i}")
                   for i in range(2 * cascade.PREDICT_FORK_MIN)]


@pytest.mark.parametrize("end", ["return", "worker killed", "worker raises", "Ctrl-C", "fork fails"])
@pytest.mark.parametrize("job", ["training", "prediction"])
def test_every_end_of_a_worker_leaves_no_process_and_no_fd(monkeypatch, forks, time_bound, job, end):
    # the function wrapped runs a training slice or one prediction, in both
    # processes: the caller's second call kills the worker or raises Ctrl-C in
    # mid-pair, and every call in the worker raises; or the fork itself fails
    fds, cpus, parent, calls = _open_fds(), os.sched_getaffinity(0), os.getpid(), []
    if end == "fork fails":

        def failing_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", failing_fork)

    def ending(run):
        def wrapped(*args, **kwargs):
            if os.getpid() != parent and end == "worker raises":
                raise InvalidArgumentError("fails in the worker")
            if os.getpid() == parent:
                calls.append(1)
                if len(calls) == 2 and end == "worker killed":
                    os.kill(forks[0], signal.SIGKILL)
                if len(calls) == 2 and end == "Ctrl-C":
                    raise KeyboardInterrupt
            return run(*args, **kwargs)

        return wrapped

    if job == "training":
        fresh, x, targets, masks = _two_dropout_step(monkeypatch)
        monkeypatch.setattr(nn, "_FORWARD", ending(nn._FORWARD))
        net = fresh()[0]
        own = [p[key] for p in net.params if p is not None for key in ("w", "b")]
        values = [a.copy() for a in own]

        def run():
            nn.train_epochs(net, x, targets, masks, nn.TrainConfig(epochs=2, batch_size=16))
    else:
        model, examples = _prediction_set()
        monkeypatch.setattr(cascade, "predict", ending(cascade.predict))

        def run():
            cascade.predict_many(model, examples)
    raised = {"return": nullcontext(),
              "worker killed": pytest.raises(ContractViolationError,
                                             match=f"{job} worker process ended with exit code -9"),
              "worker raises": pytest.raises(InvalidArgumentError, match="fails in the worker"),
              "Ctrl-C": pytest.raises(KeyboardInterrupt),
              "fork fails": pytest.raises(OSError, match=os.strerror(errno.EAGAIN))}[end]
    t0 = time.monotonic()
    with raised:
        run()
    assert time.monotonic() - t0 < 10
    if end == "fork fails":
        assert not forks and not calls  # nothing ran
    else:
        assert len(forks) == 1 and _reaped(forks[0])
    assert _open_fds() == fds and os.sched_getaffinity(0) == cpus
    if job == "training":  # the net holds its own arrays again, untrained where no step ran
        assert all(a is b for a, b in zip(own, (p[key] for p in net.params if p is not None
                                                  for key in ("w", "b"))))
        if end == "fork fails":
            assert all(np.array_equal(a, v) for a, v in zip(own, values))


def test_a_dead_worker_raises_on_every_later_step(monkeypatch, forks, time_bound):
    fresh, x, targets, masks = _two_dropout_step(monkeypatch)
    net, state = fresh()
    with nn.slice_worker(net, x, targets, masks) as worker:
        os.kill(forks[0], signal.SIGKILL)
        for _ in range(3):
            with pytest.raises(ContractViolationError, match="training worker process ended with exit code -9"):
                nn.train_step(net, state, x, targets, masks, np.arange(37), np.random.default_rng(5), worker)
    assert len(forks) == 1 and _reaped(forks[0])


def test_a_forked_child_runs_on_the_other_cpus_of_the_caller(time_bound):
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("one CPU, which the caller and the child share")
    with workers.forked(lambda request: os.sched_getaffinity(0), "test") as child:
        child.send(None)
        (here,) = os.sched_getaffinity(0)
        assert child.receive() == cpus - {here}
    assert os.sched_getaffinity(0) == cpus


def test_a_forked_worker_runs_only_what_it_was_forked_with(monkeypatch, time_bound):
    fresh, x, targets, masks = _two_dropout_step(monkeypatch)
    (net, state), (other, _) = fresh(), fresh()
    with nn.slice_worker(net, x, targets, masks) as worker:
        with pytest.raises(ContractViolationError, match="forked with"):
            nn.train_step(other, state, x, targets, masks, np.arange(37), np.random.default_rng(5), worker)
        with pytest.raises(ContractViolationError, match="forked with"):
            nn.train_step(net, state, x.copy(), targets, masks, np.arange(37), np.random.default_rng(5), worker)


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "no fork"])
def test_a_step_that_raises_on_the_caller_leaves_the_worker_in_step(monkeypatch, time_bound, forked):
    # the first step raises on the caller's first slice, after the worker got
    # slice 1: the next step must not take that slice's reply for its own
    fresh, x, targets, masks = _two_dropout_step(monkeypatch)
    if not forked:
        monkeypatch.delattr(os, "fork")

    class FailsOnce:
        def __init__(self):
            self.pid, self.calls = os.getpid(), 0

        def __len__(self):
            return len(x)

        def __getitem__(self, rows):
            if os.getpid() == self.pid:
                self.calls += 1
                if self.calls == 1:
                    raise InvalidArgumentError("the caller's first crop")
            return x[rows]

    source, (net, state), (serial, serial_state) = FailsOnce(), fresh(), fresh()
    with nn.slice_worker(net, source, targets, masks) as worker:
        with pytest.raises(InvalidArgumentError, match="first crop"):
            nn.train_step(net, state, source, targets, masks, np.arange(37), np.random.default_rng(5), worker)
        loss = nn.train_step(net, state, source, targets, masks, np.arange(37), np.random.default_rng(5), worker)
    monkeypatch.delattr(os, "fork", raising=False)  # the reference runs every slice here, one after another
    with nn.slice_worker(serial, x, targets, masks) as worker:
        serial_loss = nn.train_step(serial, serial_state, x, targets, masks, np.arange(37),
                                    np.random.default_rng(5), worker)
    assert loss == serial_loss
    _assert_same_state((net, state), (serial, serial_state))


# --- loading -------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["w", "b"])
def test_non_finite_parameters_rejected_at_load(bad, key):
    k = 2
    net = nn.init_network([nn.Conv(2, 3), nn.ReLU(), nn.FullyConnected(2 * k)], (6, 6, 1), 2 * k,
                          seed=5, dtype=np.float32)
    model = cascade.CascadeModel([net], [None], 1.0, PoseTree(k, [], []), (6, 6, 1))
    with pytest.raises(InvalidArgumentError, match=r"stage 1: layer 2 \(fc\) has non-finite"):
        cascade.cascade_from_bytes(file_with_param(model, net.params[2][key], 1, bad))


@pytest.mark.parametrize("kw", [dict(epochs=-1), dict(epochs=1, batch_size=0),
                                dict(epochs=1, learning_rate=0.0),
                                dict(epochs=1, learning_rate=float("nan")),
                                dict(epochs=1, learning_rate=float("inf"))])
def test_train_config_rejects_bad_settings(kw):
    with pytest.raises(InvalidArgumentError):
        nn.TrainConfig(**kw)


# --- compute dtype ------------------------------------------------------------------


DTYPE_CASES = {
    "conv": ([nn.Conv(3, 3), nn.Conv(2, 2)], (7, 7, 2)),
    "relu": ([nn.Conv(3, 3), nn.ReLU(), nn.FullyConnected(4)], (6, 6, 1)),
    "lrn": ([nn.Conv(6, 2), nn.LRN(depth=5), nn.FullyConnected(4)], (5, 5, 1)),
    "maxpool_fast": ([nn.Conv(3, 3), nn.MaxPool(2), nn.FullyConnected(4)], (8, 8, 1)),
    "maxpool_general": ([nn.Conv(3, 3), nn.MaxPool(3, 2), nn.FullyConnected(4)], (9, 9, 1)),
    "relu_maxpool": ([nn.Conv(3, 3), nn.ReLU(), nn.MaxPool(2), nn.FullyConnected(4)], (8, 8, 1)),
    "fc": ([nn.FullyConnected(5), nn.FullyConnected(4)], (6,)),
    "dropout": ([nn.FullyConnected(5), nn.Dropout(0.6), nn.FullyConnected(4)], (6,)),
}


@pytest.mark.parametrize("name", sorted(DTYPE_CASES))
def test_float32_kept_end_to_end(name):
    layers, input_size = DTYPE_CASES[name]
    shape = input_size
    for s in nn.chain_shapes(layers, input_size):
        shape = s
    net = nn.init_network(layers, input_size, int(np.prod(shape)), seed=4, dtype=np.float32)
    rng = np.random.default_rng(5)
    x = rng.random((3,) + input_size)  # float64 input is cast on entry
    out, cache = nn.forward(net, x, train_mode=True, rng=rng)
    assert out.dtype == np.float32
    assert all(v.dtype == np.float32 for c in cache.layer_caches if c for v in c.values()
               if isinstance(v, np.ndarray) and v.dtype.kind == "f")
    grads = nn.backward(net, cache, rng.standard_normal(out.shape))  # float64 grad too
    state = nn.OptimizerState.for_network(net, LR)
    nn.adagrad_step(net, grads, state)
    for g, p, a in zip(grads, net.params, state.accum):
        if p is not None:
            for key in ("w", "b"):
                assert g[key].dtype == p[key].dtype == a[key].dtype == np.float32


def test_train_epochs_float32_deterministic_and_float32():
    x, y, m = _toy_regression()
    nets = []
    for _ in range(2):
        net = nn.init_network([nn.FullyConnected(2)], (4,), 2, seed=3, dtype=np.float32)
        nn.train_epochs(net, x.astype(np.float32), y, m,
                        nn.TrainConfig(epochs=3, batch_size=4, learning_rate=0.05, seed=11))
        nets.append(net)
    for pa, pb in zip(nets[0].params, nets[1].params):
        for key in ("w", "b"):
            assert pa[key].dtype == np.float32 and pa[key].tobytes() == pb[key].tobytes()


def test_float32_init_is_cast_float64_draws():
    layers = [nn.Conv(2, 3), nn.FullyConnected(4)]
    a = nn.init_network(layers, (6, 6, 1), 4, seed=8)
    b = nn.init_network(layers, (6, 6, 1), 4, seed=8, dtype=np.float32)
    for pa, pb in zip(a.params, b.params):
        if pa is not None:
            assert np.array_equal(pa["w"].astype(np.float32), pb["w"])


def test_network_rejects_mixed_dtypes():
    net = fc_net(3, 2)
    with pytest.raises(InvalidArgumentError):
        nn.Network(net.input_size, net.layers, net.params, net.output_dim, dtype=np.float32)
    with pytest.raises(InvalidArgumentError):
        nn.Network(net.input_size, net.layers, net.params, net.output_dim, dtype=np.float16)


# --- ReLU -> MaxPool run order --------------------------------------------------------


def test_run_order_swaps_relu_feeding_maxpool():
    layers = [nn.Conv(2, 3), nn.ReLU(), nn.MaxPool(2), nn.ReLU(), nn.ReLU(), nn.MaxPool(3, 2),
              nn.FullyConnected(4), nn.ReLU()]
    assert nn._run_order(layers) == [0, 2, 1, 3, 5, 4, 6, 7]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("pool", [nn.MaxPool(2), nn.MaxPool(3, 2)])
def test_relu_after_maxpool_is_bit_identical(pool, dtype, monkeypatch):
    # A 1x1 identity conv puts small integers straight into the pool: many
    # tied windows and many whose max is <= 0.
    rng = np.random.default_rng(12)
    x = rng.integers(-3, 2, size=(4, 9, 9, 2)).astype(np.float64)
    layers = [nn.Conv(2, 1), nn.ReLU(), pool, nn.FullyConnected(6)]
    net = nn.init_network(layers, (9, 9, 2), 6, seed=13, dtype=dtype)
    net.params[0]["w"][:] = np.eye(2).reshape(1, 1, 2, 2)
    pool_net = nn.init_network([pool], (9, 9, 2), 4 * 4 * 2, seed=0, dtype=dtype)
    assert np.any(nn.forward(pool_net, x)[0] <= 0), "test data needs windows whose max is <= 0"

    # forward: the same as the four layers run as one-layer nets, in spec order
    y = x
    for idx, spec in enumerate(layers):
        in_size = y.shape[1:]
        shape = nn.chain_shapes([spec], in_size)[0]
        one = nn.init_network([spec], in_size, int(np.prod(shape)), seed=0, dtype=dtype)
        one.params[0] = net.params[idx]
        y = nn.forward(one, y)[0].reshape((len(x),) + shape)
    out, cache = nn.forward(net, x, train_mode=True)
    assert cache.run_order == [0, 2, 1, 3]
    assert np.array_equal(out, y.reshape(len(x), -1))

    # backward: the same parameter gradients as without the swap
    g = rng.standard_normal(out.shape)
    swapped = nn.backward(net, cache, g)
    monkeypatch.setattr(nn, "_run_order", lambda layers: list(range(len(layers))))
    out_plain, cache_plain = nn.forward(net, x, train_mode=True)
    assert cache_plain.run_order == [0, 1, 2, 3]
    plain = nn.backward(net, cache_plain, g)
    assert np.array_equal(out, out_plain)
    for a, b in zip(swapped, plain):
        if a is not None:
            assert np.array_equal(a["w"], b["w"]) and np.array_equal(a["b"], b["b"])
    assert np.any(swapped[0]["w"] != 0)


@pytest.mark.parametrize("pool", [nn.MaxPool(2), nn.MaxPool(3, 2)])
def test_backward_finite_difference_conv_relu_maxpool(pool):
    rng = np.random.default_rng(14)
    net = nn.init_network([nn.Conv(3, 3), nn.ReLU(), pool, nn.FullyConnected(4)],
                          (11, 11, 1), 4, seed=15)
    assert nn._run_order(net.layers) == [0, 2, 1, 3]
    x = rng.random((11, 11, 1)) - 0.5
    assert max_rel_error(net, x, rng.random(4), np.ones(2, dtype=bool)) < 1e-4

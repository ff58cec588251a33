import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecascade import nn
from posecascade.errors import (
    ContractViolationError,
    InvalidArgumentError,
    ShapeError,
)

from fdcheck import max_rel_error


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
    net = nn.init_network([nn.ReLU()], (3,), 3, seed=0)
    out, _ = nn.forward(net, np.array([-1.0, 2.0, 0.0])[None])
    assert np.array_equal(out[0], [0.0, 2.0, 0.0])


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
    # MaxPool(2) and MaxPool(2, stride=2) both run the 2x2 fast path
    x = np.random.default_rng(4).random((2, 10, 10, 3))
    want, _ = _naive_maxpool(x, 2, 2)
    for pool in (nn.MaxPool(2), nn.MaxPool(2, stride=2)):
        net = nn.init_network([pool], (10, 10, 3), 75, seed=0)
        out, _ = nn.forward(net, x)
        assert np.array_equal(out, want.reshape(2, -1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hw", [(8, 8), (7, 9), (9, 6)])
def test_maxpool2_output_and_input_grad_bit_identical_to_loops(hw, dtype):
    # small integers tie often; the gradient must follow the row-major first max
    rng = np.random.default_rng(21)
    x = rng.integers(-2, 3, size=(3,) + hw + (2,)).astype(dtype)
    want_y, winner = _naive_maxpool(x, 2, 2)
    g = rng.standard_normal(want_y.shape).astype(dtype)
    want_dx = np.zeros_like(x)
    for idx in np.ndindex(g.shape):
        hh, ww = winner[idx]
        want_dx[idx[0], hh, ww, idx[3]] += g[idx]

    y, x6 = nn._maxpool2(x)
    dx = nn._maxpool2_grad(x6, g, x.shape)
    assert y.dtype == dx.dtype == dtype
    assert np.array_equal(y, want_y)
    assert dx.shape == x.shape and np.array_equal(dx, want_dx)
    net = nn.init_network([nn.MaxPool(2)], x.shape[1:], want_y[0].size, seed=0, dtype=dtype)
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
    got = nn._conv_input_grad(g.reshape(-1, f), wt, (n, h, w, c), (oh, ow), stride)
    assert np.array_equal(got, want)


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
    out, cache = nn.forward(net, np.random.default_rng(0).random((5, 5, 1))[None])
    grads = nn.backward(net, cache, np.zeros_like(out))
    for g in grads:
        if g is not None:
            assert np.all(g["w"] == 0.0) and np.all(g["b"] == 0.0)


def test_backward_linear_layer_gradient():
    net = fc_net(2, 1)
    x = np.array([1.0, 2.0])
    out, cache = nn.forward(net, x[None])
    grads = nn.backward(net, cache, np.array([1.0])[None])  # loss = w . x + b
    assert np.allclose(grads[0]["w"].reshape(-1), [1.0, 2.0])
    assert np.allclose(grads[0]["b"], [1.0])


def test_backward_stale_cache_rejected():
    net = fc_net(3, 2)
    out, cache = nn.forward(net, np.ones(3)[None])
    state = nn.OptimizerState.for_network(net)
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
    # pool routed to. Row-major first cell must win. stride=3 forces the
    # general (windowed) pool path, stride=2 the fast path.
    net = nn.init_network([nn.Conv(1, 1), pool], (2, 2, 2), 1, seed=0)
    net.params[0]["w"][:] = 1.0
    net.params[0]["b"][:] = 0.0
    x = np.array([[[0.0, 3.0], [3.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]]])
    out, cache = nn.forward(net, x[None])
    assert out[0][0] == 3.0  # all four cells tie at 3.0
    grads = nn.backward(net, cache, np.array([1.0])[None])
    assert np.allclose(grads[0]["w"].reshape(-1), [0.0, 3.0])  # cell (0, 0) won


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_after_inference_forward_matches_train_mode(dtype):
    # without dropout the two modes compute the same forward, so they must
    # give the same gradients; the inference cache keeps no 2x2 pool winners
    layers = [nn.Conv(3, 3), nn.ReLU(), nn.MaxPool(2), nn.Conv(4, 2, stride=2), nn.ReLU(),
              nn.MaxPool(3, 2), nn.FullyConnected(5)]
    net = nn.init_network(layers, (17, 17, 2), 5, seed=23, dtype=dtype)
    rng = np.random.default_rng(24)
    x = rng.random((4, 17, 17, 2)) - 0.5
    g = rng.standard_normal((4, 5))
    out_inf, cache_inf = nn.forward(net, x)
    out_train, cache_train = nn.forward(net, x, train_mode=True, rng=rng)
    assert np.array_equal(out_inf, out_train)
    assert "arg" not in cache_inf.layer_caches[2]
    for a, b in zip(nn.backward(net, cache_inf, g), nn.backward(net, cache_train, g)):
        if a is not None:
            assert np.array_equal(a["w"], b["w"]) and np.array_equal(a["b"], b["b"])


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


# --- serialization -------------------------------------------------------------


def test_network_round_trip():
    net = nn.init_network(
        [nn.Conv(3, 3), nn.ReLU(), nn.LRN(), nn.MaxPool(2), nn.FullyConnected(5),
         nn.Dropout(0.6), nn.FullyConnected(4)],
        (8, 8, 2), 4, seed=13,
    )
    loaded = nn.network_from_bytes(nn.network_to_bytes(net))
    assert loaded.input_size == net.input_size
    assert loaded.output_dim == net.output_dim
    assert loaded.layers == net.layers
    for pa, pb in zip(net.params, loaded.params):
        if pa is None:
            assert pb is None
            continue
        assert np.array_equal(pa["w"], pb["w"])
        assert np.array_equal(pa["b"], pb["b"])
    # deterministic re-serialization
    assert nn.network_to_bytes(net) == nn.network_to_bytes(loaded)


def test_network_bad_magic():
    with pytest.raises(InvalidArgumentError):
        nn.network_from_bytes(b"NOTANET\n" + b"\x00" * 32)


@pytest.mark.parametrize("data", [
    b"PCNET\n" + (5).to_bytes(8, "little") + b"{not}",  # bad JSON
    b"PCNET\n" + (2).to_bytes(8, "little") + b"[]",  # header is not an object
])
def test_network_malformed_header_rejected(data):
    with pytest.raises(InvalidArgumentError):
        nn.network_from_bytes(data)


def _header(data):
    hlen = int.from_bytes(data[len(nn.MAGIC) : len(nn.MAGIC) + 8], "little")
    return json.loads(data[len(nn.MAGIC) + 8 : len(nn.MAGIC) + 8 + hlen])


def _pack(header, net, code):
    """A network file with this header and net's parameters stored as code."""
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blobs = [nn.MAGIC, len(hbytes).to_bytes(8, "little"), hbytes]
    for p in net.params:
        if p is not None:
            blobs += [p["w"].astype(code).tobytes(), p["b"].astype(code).tobytes()]
    return b"".join(blobs)


@pytest.mark.parametrize("key", ["format_version", "dtype", "layers", "input_size",
                                 "output_dim", "param_shapes"])
def test_network_missing_header_key_rejected(key):
    net = fc_net(3, 2)
    header = _header(nn.network_to_bytes(net))
    del header[key]
    with pytest.raises(InvalidArgumentError):
        nn.network_from_bytes(_pack(header, net, "<f8"))


def test_network_param_shapes_must_match_layers():
    net = fc_net(3, 2)
    header = _header(nn.network_to_bytes(net))
    header["param_shapes"][0]["w"] = [2, 3]
    with pytest.raises(InvalidArgumentError, match="param_shapes"):
        nn.network_from_bytes(_pack(header, net, "<f8"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["w", "b"])
def test_non_finite_parameters_rejected_at_load(bad, key):
    net = nn.init_network([nn.Conv(2, 3), nn.ReLU(), nn.FullyConnected(4)], (6, 6, 1), 4,
                          seed=5, dtype=np.float32)
    net.params[2][key].flat[1] = bad
    with pytest.raises(InvalidArgumentError, match=r"layer 2 \(fc\) has non-finite"):
        nn.network_from_bytes(nn.network_to_bytes(net))


@pytest.mark.parametrize("kw", [dict(epochs=-1), dict(epochs=1, batch_size=0),
                                dict(epochs=1, learning_rate=0.0),
                                dict(epochs=1, learning_rate=float("nan"))])
def test_train_config_rejects_bad_settings(kw):
    with pytest.raises(InvalidArgumentError):
        nn.TrainConfig(**kw)


def test_version1_float64_file_still_loads():
    net = nn.init_network([nn.Conv(2, 3), nn.ReLU(), nn.MaxPool(2), nn.FullyConnected(4)],
                          (8, 8, 1), 4, seed=21)
    v1 = {
        "format_version": 1,
        "input_size": [8, 8, 1],
        "output_dim": 4,
        "layers": [nn.spec_to_dict(s) for s in net.layers],
        "param_shapes": [None if p is None else {"w": list(p["w"].shape), "b": list(p["b"].shape)}
                         for p in net.params],
    }
    loaded = nn.network_from_bytes(_pack(v1, net, "<f8"))
    assert loaded.dtype == np.float64
    x = np.random.default_rng(2).random((3, 8, 8, 1))
    assert np.array_equal(nn.forward(loaded, x)[0], nn.forward(net, x)[0])
    # re-saving writes the current format, same parameters
    assert _header(nn.network_to_bytes(loaded))["format_version"] == nn.FORMAT_VERSION
    assert nn.network_to_bytes(loaded) == nn.network_to_bytes(net)


def test_float32_network_round_trip_keeps_dtype():
    net = nn.init_network([nn.Conv(2, 3), nn.ReLU(), nn.FullyConnected(4)], (6, 6, 1), 4,
                          seed=5, dtype=np.float32)
    data = nn.network_to_bytes(net)
    assert _header(data)["dtype"] == "<f4"
    loaded = nn.network_from_bytes(data)
    assert loaded.dtype == np.float32
    for pa, pb in zip(net.params, loaded.params):
        if pa is not None:
            assert pb["w"].dtype == np.float32 and np.array_equal(pa["w"], pb["w"])
    assert nn.network_to_bytes(loaded) == data


def _fuzz_net_bytes():
    net = nn.init_network([nn.Conv(2, 3), nn.ReLU(), nn.MaxPool(2), nn.FullyConnected(4)],
                          (8, 8, 1), 4, seed=3, dtype=np.float32)
    return nn.network_to_bytes(net)


NET_BYTES = _fuzz_net_bytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(NET_BYTES) - 1))
def test_truncated_network_file_rejected(cut):
    with pytest.raises(InvalidArgumentError):
        nn.network_from_bytes(NET_BYTES[:cut])


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=32))
def test_extended_network_file_rejected(extra):
    with pytest.raises(InvalidArgumentError):
        nn.network_from_bytes(NET_BYTES + extra)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8 * len(NET_BYTES) - 1))
def test_bit_flipped_network_file_loads_or_is_rejected(bit):
    data = bytearray(NET_BYTES)
    data[bit // 8] ^= 1 << (bit % 8)
    try:
        net = nn.network_from_bytes(bytes(data))
    except InvalidArgumentError:
        return
    # a flip that still parses (a parameter, a layer constant) gives a usable net
    nn.forward(net, np.zeros(net.input_size)[None])


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
    for s in nn._chain_shapes(layers, input_size):
        shape = s
    net = nn.init_network(layers, input_size, int(np.prod(shape)), seed=4, dtype=np.float32)
    rng = np.random.default_rng(5)
    x = rng.random((3,) + input_size)  # float64 input is cast on entry
    out, cache = nn.forward(net, x, train_mode=True, rng=rng)
    assert out.dtype == np.float32
    assert all(v.dtype == np.float32 for c in cache.layer_caches if c for v in c.values()
               if isinstance(v, np.ndarray) and v.dtype.kind == "f")
    grads = nn.backward(net, cache, rng.standard_normal(out.shape))  # float64 grad too
    state = nn.OptimizerState.for_network(net)
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
        nets.append(nn.network_to_bytes(net))
    assert nets[0] == nets[1]
    assert nn.network_from_bytes(nets[0]).dtype == np.float32


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
        shape = nn._chain_shapes([spec], in_size)[0]
        one = nn.init_network([spec], in_size, int(np.prod(shape)), seed=0, dtype=dtype)
        one.params[0] = net.params[idx]
        y = nn.forward(one, y)[0].reshape((len(x),) + shape)
    out, cache = nn.forward(net, x)
    assert cache.run_order == [0, 2, 1, 3]
    assert np.array_equal(out, y.reshape(len(x), -1))

    # backward: the same parameter gradients as without the swap
    g = rng.standard_normal(out.shape)
    swapped = nn.backward(net, cache, g)
    monkeypatch.setattr(nn, "_run_order", lambda layers: list(range(len(layers))))
    out_plain, cache_plain = nn.forward(net, x)
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

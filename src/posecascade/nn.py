"""Minimal trainable feed-forward convolutional network engine.

The regressor is a stack of layers (conv / relu / cross-channel response
normalization / max-pool / fully-connected / dropout) computing a 2k-vector of
normalized joint coordinates from an image tensor. Everything runs on numpy in
the dtype of the network's parameters: float32 for the cascade stages, float64
(the `init_network` default) for gradient checks. A train-mode forward caches
activations, backward produces exact reverse-mode gradients from them, and
updates follow the adaptive-gradient rule (squared gradients accumulate per parameter and scale
the step down over time).

Callers pass batches laid out (n, height, width, channels) and get (n,
output_dim) back. Inside forward and backward, activations are channel-major,
(channels, n, height, width): convs and pools then read their windows as
the same k*k cell views of contiguous (channels * n, height, width) planes,
and a conv's GEMM output is already the next activation. For one channel the
conversion at entry is a free view. Weights keep the callers' layout: conv
filters are (kh, kw, c, f) and fully-connected weights read features in
(h, w, c) order.

Training (train_epochs) runs each mini-batch in slices of a few examples,
two at a time: the calling process runs one slice of each pair and a worker
process, forked once per train_epochs call, the other. The two share the
parameters and the worker's gradients through memory mapped before the
fork; the step sums the gradients in slice order, and each slice pins BLAS
to one thread, so the update has the bits of the slices run one after
another on one thread. The fork and the pair schedule are the workers
module's, which cascade.predict_many's examples run on too.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import workers
from .errors import (
    ContractViolationError,
    InvalidArgumentError,
    ShapeError,
)


# ---------------------------------------------------------------------------
# layer specs


@dataclass(frozen=True)
class Conv:
    """Valid-padding square convolution: size x size filters, `filters` outputs."""

    filters: int
    size: int
    stride: int = 1

    def __post_init__(self):
        if self.filters < 1 or self.size < 1 or self.stride < 1:
            raise InvalidArgumentError(f"bad conv spec {self}")


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class LRN:
    """Cross-channel response normalization, constants from the classic
    image-classification reference net: x / (k + alpha * sum_window x^2)^beta
    with the sum over `depth` adjacent channels centered on each channel."""

    depth: int = 5
    k_const: float = 2.0
    alpha: float = 1e-4
    beta: float = 0.75

    def __post_init__(self):
        if self.depth < 1:
            raise InvalidArgumentError(f"bad LRN depth {self.depth}")
        k, alpha, beta = (float(v) for v in (self.k_const, self.alpha, self.beta))
        if not (0 < k < math.inf and 0 <= alpha < math.inf and 0 <= beta < math.inf):  # False for NaN
            raise InvalidArgumentError(f"LRN needs finite k_const > 0 and alpha, beta >= 0: {self}")


@dataclass(frozen=True)
class MaxPool:
    size: int
    stride: int = 0  # 0 means equal to size

    def __post_init__(self):
        if self.size < 1 or self.stride < 0:
            raise InvalidArgumentError(f"bad pool spec {self}")

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride else self.size


@dataclass(frozen=True)
class FullyConnected:
    units: int

    def __post_init__(self):
        if self.units < 1:
            raise InvalidArgumentError(f"bad fully-connected spec {self}")


@dataclass(frozen=True)
class Dropout:
    """Inverted dropout: active only in train mode, identity at inference."""

    keep_prob: float

    def __post_init__(self):
        if not (0.0 < self.keep_prob <= 1.0):
            raise InvalidArgumentError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if np.float32(self.keep_prob) == 0:  # a float32 net would divide by it
            raise InvalidArgumentError(f"keep_prob must be in (0, 1] and nonzero in float32, "
                                       f"got {self.keep_prob}")


LayerSpec = Conv | ReLU | LRN | MaxPool | FullyConnected | Dropout

_KIND_TO_CLS = {
    "conv": Conv,
    "relu": ReLU,
    "lrn": LRN,
    "maxpool": MaxPool,
    "fc": FullyConnected,
    "dropout": Dropout,
}
_CLS_TO_KIND = {v: k for k, v in _KIND_TO_CLS.items()}
_FIELD_TYPES = {"int": (int,), "float": (int, float)}  # value types a spec field takes


def spec_to_dict(spec: LayerSpec) -> dict:
    d = {"kind": _CLS_TO_KIND[type(spec)]}
    for f in fields(spec):
        d[f.name] = getattr(spec, f.name)
    return d


def spec_from_dict(d: dict) -> LayerSpec:
    d = dict(d)
    kind = d.pop("kind")
    if kind not in _KIND_TO_CLS:
        raise InvalidArgumentError(f"unknown layer kind {kind!r}")
    spec = _KIND_TO_CLS[kind](**d)
    if any(type(getattr(spec, f.name)) not in _FIELD_TYPES[f.type] for f in fields(spec)):
        raise InvalidArgumentError(f"bad field type in {spec}")
    return spec


# ---------------------------------------------------------------------------
# shape chaining


def chain_shapes(layers: list[LayerSpec], input_size: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Output shape after each layer; raises naming the first layer that cannot apply."""
    shape = tuple(int(s) for s in input_size)
    if len(shape) not in (1, 3):
        raise ShapeError(f"input_size must be (h, w, c) or (n,), got {shape}")
    out = []
    for idx, spec in enumerate(layers):
        name = f"layer {idx} ({type(spec).__name__})"
        if isinstance(spec, Conv):
            if len(shape) != 3:
                raise ShapeError(f"{name}: conv needs a (h, w, c) input, got {shape}")
            h, w, c = shape
            if h < spec.size or w < spec.size:
                raise ShapeError(f"{name}: {spec.size}x{spec.size} filter exceeds input {h}x{w}")
            shape = (
                (h - spec.size) // spec.stride + 1,
                (w - spec.size) // spec.stride + 1,
                spec.filters,
            )
        elif isinstance(spec, MaxPool):
            if len(shape) != 3:
                raise ShapeError(f"{name}: pool needs a (h, w, c) input, got {shape}")
            h, w, c = shape
            s = spec.effective_stride
            if h < spec.size or w < spec.size:
                raise ShapeError(f"{name}: {spec.size}x{spec.size} window exceeds input {h}x{w}")
            shape = ((h - spec.size) // s + 1, (w - spec.size) // s + 1, c)
        elif isinstance(spec, LRN):
            if len(shape) != 3:
                raise ShapeError(f"{name}: response normalization needs a (h, w, c) input")
        elif isinstance(spec, FullyConnected):
            shape = (spec.units,)
        elif isinstance(spec, (ReLU, Dropout)):
            pass
        else:
            raise InvalidArgumentError(f"{name}: unknown spec")
        out.append(shape)
    return out


def param_shapes(
    layers: list[LayerSpec], input_size: tuple[int, ...], output_dim: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """(weight shape, bias shape) per layer, None for parameter-free layers.

    Raises if the layers do not chain or do not flatten to output_dim.
    """
    shapes = chain_shapes(layers, input_size)
    final = shapes[-1] if shapes else tuple(input_size)
    if math.prod(final) != output_dim:
        raise ShapeError(
            f"final layer produces {math.prod(final)} values, expected output_dim={output_dim}"
        )
    out = []
    in_shape = tuple(int(s) for s in input_size)
    for spec, out_shape in zip(layers, shapes):
        if isinstance(spec, Conv):
            out.append(((spec.size, spec.size, in_shape[2], spec.filters), (spec.filters,)))
        elif isinstance(spec, FullyConnected):
            out.append(((math.prod(in_shape), spec.units), (spec.units,)))
        else:
            out.append(None)
        in_shape = out_shape
    return out


# ---------------------------------------------------------------------------
# network


@dataclass
class Network:
    input_size: tuple[int, ...]  # (h, w, c) or (n,)
    layers: list[LayerSpec]
    params: list[dict | None]  # per layer: {"w": ndarray, "b": ndarray} or None
    output_dim: int
    version: int = 0  # bumped on every optimizer step; guards stale caches
    dtype: np.dtype = np.dtype(np.float64)  # of params, activations and gradients

    def __post_init__(self):
        self.dtype = np.dtype(self.dtype)
        if self.dtype not in (np.float32, np.float64):
            raise InvalidArgumentError(f"unsupported network dtype {self.dtype}")
        for p in self.params:
            if p is not None and (p["w"].dtype != self.dtype or p["b"].dtype != self.dtype):
                raise InvalidArgumentError(f"parameters must all be {self.dtype}")

    def zeroed_like(self) -> list[dict | None]:
        """Gradient/accumulator buffers with the same shapes as params."""
        return [
            None if p is None else {"w": np.zeros_like(p["w"]), "b": np.zeros_like(p["b"])}
            for p in self.params
        ]


def init_network(
    layers: list[LayerSpec],
    input_size: tuple[int, ...],
    output_dim: int,
    seed: int,
    dtype=np.float64,
) -> Network:
    """Build a network with Gaussian weights of std 1/sqrt(fan_in), zero biases.

    Weights are drawn in float64 and then cast to dtype, so a float32 and a
    float64 net of one seed start from the same draws. Deterministic for a
    given seed. Raises if layer shapes do not chain or the final output does
    not flatten to output_dim.
    """
    rng = np.random.default_rng(seed)
    params: list[dict | None] = []
    for shp in param_shapes(layers, input_size, output_dim):
        if shp is None:
            params.append(None)
            continue
        w_shape, b_shape = shp
        std = 1.0 / np.sqrt(math.prod(w_shape[:-1]))  # fan_in
        w = rng.normal(0.0, std, size=w_shape)
        params.append({"w": w.astype(dtype, copy=False), "b": np.zeros(b_shape, dtype)})
    return Network(
        tuple(int(s) for s in input_size), list(layers), params, int(output_dim), dtype=dtype
    )


# ---------------------------------------------------------------------------
# forward / backward


@dataclass
class ForwardCache:
    net_id: int
    net_version: int
    layer_caches: list  # indexed by layer
    output_shape: tuple[int, ...]
    run_order: list[int]  # layer indices in the order forward ran them
    final_shape: tuple[int, ...]  # of the last activation, (c, n, h, w) or (n, d)


def _run_order(layers: list[LayerSpec]) -> list[int]:
    """Layer indices in execution order.

    A ReLU that directly feeds a MaxPool runs after it, on the pooled map,
    which has one value per window and so is smaller than the pool's input.
    It zeroes that map in place, so the pool's backward reads the map after
    the ReLU. For finite inputs the two orders agree bit for bit: max and
    ReLU commute, and a window whose max is <= 0 sends a +-0 gradient to
    whichever cell wins it.
    """
    order = list(range(len(layers)))
    i = 0
    while i + 1 < len(layers):
        if isinstance(layers[i], ReLU) and isinstance(layers[i + 1], MaxPool):
            order[i], order[i + 1] = i + 1, i
            i += 2
        else:
            i += 1
    return order


def _flat(x: np.ndarray) -> np.ndarray:
    """(n, features) of an activation, features in the callers' (h, w, c)
    order, which the fully-connected weights use."""
    return x.transpose(1, 2, 3, 0).reshape(x.shape[1], -1) if x.ndim == 4 else x


def _unflat(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of _flat: values in the callers' order back to an activation
    of shape."""
    if len(shape) != 4:
        return g.reshape(shape)
    c, n, h, w = shape
    return np.ascontiguousarray(g.reshape(n, h, w, c).transpose(3, 0, 1, 2))


def _lrn_window_sum(s: np.ndarray, radius: int) -> np.ndarray:
    """Sum of s over the clamped channel window [c-radius, c+radius] of axis
    0: s plus its slices shifted by 1 .. radius channels either way. A shift
    of c or more reaches no channel, so a radius read from a model file costs
    at most c - 1 shifts."""
    out = s.copy()
    for d in range(1, min(radius, s.shape[0] - 1) + 1):
        out[d:] += s[:-d]
        out[:-d] += s[d:]
    return out


def _windows(x: np.ndarray, size: int, stride: int) -> list[np.ndarray]:
    """The size^2 (m, oh, ow) strided views of (m, h, w) planes, one per
    window cell in row-major order: view i holds cell i of every window."""
    _, h, w = x.shape
    oh, ow = (h - size) // stride + 1, (w - size) // stride + 1
    return [
        x[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
        for i in range(size)
        for j in range(size)
    ]


def _maxpool(x: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Max pool over (m, h, w) planes: the elementwise max of the window cell
    views. No winner is kept: _maxpool_grad finds it by comparing the cells
    with the pooled map, so inference never computes it."""
    cells = _windows(x, size, stride)
    # never a view of x: the ReLU run after the pool zeroes y in place
    y = np.maximum(cells[0], cells[1]) if len(cells) > 1 else cells[0].copy()
    for cell in cells[2:]:
        np.maximum(y, cell, out=y)
    return y


def _maxpool_grad(
    x: np.ndarray, y: np.ndarray, g: np.ndarray, size: int, stride: int
) -> np.ndarray:
    """Input gradient of _maxpool over planes x from its pooled map y: each
    window's g goes to its first (row-major) cell equal to y, the last cell
    taking a window that no cell equals, and a pixel in no window gets 0.
    y may have been zeroed in place by the ReLU run after the pool: a window
    whose max is <= 0 then has a +-0 g, so its cells' gradients come out the
    same bits whichever cell wins it. Disjoint windows write g times the win
    mask into their cells, so a losing cell keeps g's sign of zero;
    overlapping windows add it."""
    g = g.reshape(y.shape)
    tiled = stride == size and x.shape[1:] == (size * y.shape[1], size * y.shape[2])
    dx = np.empty(x.shape, g.dtype) if tiled else np.zeros(x.shape, g.dtype)
    cells = _windows(x, size, stride)
    left = np.True_  # the windows no earlier cell won
    for i, (cell, dst) in enumerate(zip(cells, _windows(dx, size, stride))):
        if i == len(cells) - 1:
            win = left
        elif i == 0:
            win = cell == y
            left = ~win
        else:
            win = cell == y
            win &= left
            left ^= win
        if stride >= size:
            np.multiply(g, win, out=dst)
        else:
            dst += g * win
    return dx


def _conv_input_grad(
    g: np.ndarray, w: np.ndarray, in_shape: tuple[int, ...], stride: int
) -> np.ndarray:
    """Input gradient of a conv over a (c, n, h, w) input from its (f, n, oh,
    ow) output gradient: one GEMM per kernel offset t, added into window
    cell view t of the input planes, the pixels that offset read."""
    c, f = w.shape[2:]
    gmat = g.reshape(f, -1)
    dx = np.zeros(in_shape, g.dtype)
    cells = _windows(dx.reshape(c * in_shape[1], *in_shape[2:]), w.shape[0], stride)
    for tap, cell in zip(w.reshape(-1, c, f), cells):
        cell += (tap @ gmat).reshape(cell.shape)
    return dx


def forward(
    net: Network,
    x: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the net on a batch: x is (n, *input_size), one example per row.

    Returns (output, cache), the output being (n, output_dim). A train-mode
    forward's cache feeds backward(); an inference-mode forward keeps nothing
    and returns None for it. Dropout draws from rng only in train mode. x is
    cast to the net's dtype, and so is everything computed from it.
    """
    x = np.asarray(x)
    if x.shape[1:] != tuple(net.input_size):
        raise ShapeError(f"input shape {x.shape} is not a batch of net inputs {net.input_size}")
    if train_mode and rng is None and any(isinstance(s, Dropout) for s in net.layers):
        raise InvalidArgumentError("train-mode forward through dropout needs an rng")
    # channel-major from here on; a view when c == 1 and x has the net's dtype
    x = np.ascontiguousarray(x.transpose(3, 0, 1, 2) if x.ndim == 4 else x, dtype=net.dtype)
    entry = x

    order = _run_order(net.layers)
    caches: list = [None] * len(net.layers)
    for idx in order:
        spec, p = net.layers[idx], net.params[idx]
        if isinstance(spec, Conv):
            # im2col: rows in the (kh, kw, c) order of the weights, columns (n, oh, ow)
            c, n, h, w = x.shape
            cells = _windows(x.reshape(c * n, h, w), spec.size, spec.stride)
            cols = np.empty((len(cells),) + cells[0].shape, x.dtype)
            for t, cell in enumerate(cells):
                cols[t] = cell
            oh, ow = cells[0].shape[1:]
            cols = cols.reshape(-1, n * oh * ow)
            y = p["w"].reshape(-1, spec.filters).T @ cols
            y += p["b"][:, None]
            caches[idx] = {"in_shape": x.shape, "cols": cols}
            del cells, cols
            x = y.reshape(spec.filters, n, oh, ow)
        elif isinstance(spec, ReLU):
            # in place, except on the callers' array: a pool run just before
            # shares its output with this ReLU (see _maxpool_grad)
            x = x.copy() if x is entry else x
            np.fmax(x, 0.0, out=x)  # NaN to 0
            x += 0.0  # -0 to +0
            caches[idx] = {"y": x}
        elif isinstance(spec, LRN):
            r = spec.depth // 2
            ssum = _lrn_window_sum(x * x, r)
            scale = spec.k_const + spec.alpha * ssum
            y = x * scale ** (-spec.beta)
            caches[idx] = {"x": x, "scale": scale, "radius": r}
            x = y
        elif isinstance(spec, MaxPool):
            c, n, h, w = x.shape
            planes = x.reshape(c * n, h, w)
            y = _maxpool(planes, spec.size, spec.effective_stride)
            caches[idx] = {"x": planes, "y": y}
            x = y.reshape((c, n) + y.shape[1:])
        elif isinstance(spec, FullyConnected):
            flat = _flat(x)
            caches[idx] = {"x": flat, "orig_shape": x.shape}
            x = flat @ p["w"] + p["b"]
        elif isinstance(spec, Dropout) and train_mode:
            # drawn in the callers' layout, so the rng stream does not depend on ours
            mask = _unflat(rng.random(x.size), x.shape) < spec.keep_prob
            x = x * mask / spec.keep_prob
            caches[idx] = {"mask": mask}
        if not train_mode:
            caches[idx] = None  # inference keeps nothing for backward

    out = _flat(x)
    return out, (ForwardCache(id(net), net.version, caches, out.shape, order, x.shape)
                 if train_mode else None)


def backward(
    net: Network, cache: ForwardCache | None, output_grad: np.ndarray, into: list[dict | None] | None = None
) -> list[dict | None]:
    """Reverse-mode gradients of a scalar loss w.r.t. every parameter.

    output_grad is dLoss/dOutput, shaped like the forward's output.
    Gradients sum over the batch axis; cache is a train-mode forward's.
    into, when given, is a gradient list as backward returns it: each
    layer's gradients are added into its arrays as soon as they are
    computed (the same adds as summing the returned lists afterwards), and
    into is returned, so a running sum over slices holds no second set.
    """
    if cache is None:
        raise ContractViolationError("an inference-mode forward keeps no cache for backward")
    if cache.net_id != id(net) or cache.net_version != net.version:
        raise ContractViolationError("forward cache does not belong to this network state")
    dt = net.dtype
    g = np.array(output_grad, dtype=dt)  # a copy: layers may overwrite g
    if g.shape != cache.output_shape:
        raise ShapeError(f"output_grad shape {g.shape} does not match {cache.output_shape}")
    g = _unflat(g, cache.final_shape)

    grads: list[dict | None] = [None] * len(net.layers) if into is None else into

    def keep(idx, dw, db):
        if grads[idx] is None:
            grads[idx] = {"w": dw, "b": db}
        else:
            grads[idx]["w"] += dw
            grads[idx]["b"] += db

    for idx in reversed(cache.run_order):
        spec, p, c = net.layers[idx], net.params[idx], cache.layer_caches[idx]
        if isinstance(spec, Conv):
            in_shape = c["in_shape"]
            gmat = g.reshape(spec.filters, -1)
            dw = (c["cols"] @ gmat.T).reshape(spec.size, spec.size, in_shape[0], spec.filters)
            dx = None  # nothing below the first layer run consumes its input gradient
            if idx != cache.run_order[0]:
                dx = _conv_input_grad(g, p["w"], in_shape, spec.stride)
            keep(idx, dw, gmat @ np.ones(gmat.shape[1], dt))
            g = dx
            del gmat, dx  # free this layer's output gradient before the layers below run
        elif isinstance(spec, ReLU):
            g = g * (c["y"] > 0)
        elif isinstance(spec, LRN):
            xin, scale, r = c["x"], c["scale"], c["radius"]
            inv = scale ** (-spec.beta)
            inner = _lrn_window_sum(g * xin * scale ** (-spec.beta - 1.0), r)
            g = g * inv - 2.0 * spec.alpha * spec.beta * xin * inner
        elif isinstance(spec, MaxPool):
            in_shape = g.shape[:2] + c["x"].shape[1:]  # (c, n, h, w)
            g = _maxpool_grad(c["x"], c["y"], g, spec.size, spec.effective_stride)
            g = g.reshape(in_shape)
        elif isinstance(spec, FullyConnected):
            xin = c["x"]
            keep(idx, xin.T @ g, g.sum(axis=0))
            g = _unflat(g @ p["w"].T, c["orig_shape"])
        elif isinstance(spec, Dropout):
            g = g * c["mask"] / spec.keep_prob
    return grads


# ---------------------------------------------------------------------------
# loss


def l2_loss_batch(
    pred: np.ndarray, target: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Masked squared-error loss over joint coordinates, averaged over the batch.

    pred and target are (n, 2k); mask is (n, k) booleans. The loss is the
    mean per-example squared error, and the returned gradient already carries
    the 1/n factor. Joints masked out contribute nothing to either.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if (pred.shape != target.shape or pred.ndim != 2 or mask.ndim != 2
            or pred.shape != (mask.shape[0], 2 * mask.shape[1])):
        raise ShapeError(
            f"pred {pred.shape}, target {target.shape}, mask {mask.shape} are inconsistent"
        )
    n = pred.shape[0]
    cmask = np.repeat(mask, 2, axis=1)
    diff = np.where(cmask, pred - target, 0.0)
    return float((diff * diff).sum() / n), 2.0 * diff / n


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    """Adaptive-gradient state: one squared-gradient accumulator per parameter."""

    accum: list[dict | None]
    learning_rate: float

    @classmethod
    def for_network(cls, net: Network, learning_rate: float) -> "OptimizerState":
        return cls(net.zeroed_like(), learning_rate)


def adagrad_step(net: Network, grads: list[dict | None], state: OptimizerState) -> None:
    """In-place update: accum += g^2; param -= lr * g / (sqrt(accum) + 1e-8)."""
    for p, g, a in zip(net.params, grads, state.accum):
        if p is None:
            continue
        for key in ("w", "b"):
            if p[key].shape != g[key].shape:
                raise ShapeError(f"gradient shape {g[key].shape} != param shape {p[key].shape}")
            a[key] += g[key] * g[key]
            p[key] -= state.learning_rate * g[key] / (np.sqrt(a[key]) + 1e-8)
    net.version += 1


# ---------------------------------------------------------------------------
# training loop

# Byte budget of a training slice's largest conv im2col matrix, which sets
# how many examples train_step runs forward and backward at once. Picked by a
# sweep of tools/train_step.py over slice sizes: the default 60x60 float32
# stack gets slices of 8 (a 2.4 MiB conv1 matrix, about a core's L2 cache).
SLICE_BYTES = 5 * 2**19


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 128
    learning_rate: float = 0.0005
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise InvalidArgumentError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidArgumentError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:  # False for NaN
            raise InvalidArgumentError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")


def _slice_size(net: Network) -> int:
    """Examples per training slice: the most whose largest conv im2col matrix
    (k*k*c*oh*ow values of the net's dtype per example) fits in SLICE_BYTES,
    at least 1; 0 for a net without a conv, whose batch is one slice."""
    per_example, in_shape = 0, net.input_size
    for spec, out_shape in zip(net.layers, chain_shapes(net.layers, net.input_size)):
        if isinstance(spec, Conv):
            cols = spec.size * spec.size * in_shape[2] * out_shape[0] * out_shape[1]
            per_example = max(per_example, cols * net.dtype.itemsize)
        in_shape = out_shape
    return max(1, SLICE_BYTES // per_example) if per_example else 0


try:  # the OpenBLAS numpy bundles and its thread-count calls, found through the module that links it
    _OPENBLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)
    _BLAS_THREADS = (_OPENBLAS.scipy_openblas_get_num_threads64_,
                     _OPENBLAS.scipy_openblas_set_num_threads64_)
except (AttributeError, OSError):  # another BLAS, or another numpy layout
    _OPENBLAS = _BLAS_THREADS = None


def blas_kernel() -> str:
    """The CPU kernel numpy's OpenBLAS runs (SkylakeX, say), or "unknown" where
    it exports no call naming it; another kernel can round a GEMM differently."""
    corename = getattr(_OPENBLAS, "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


@contextmanager
def one_blas_thread():
    """Pin BLAS to one thread for the block and restore its count after.

    OpenBLAS can round a float32 GEMM differently at another thread count,
    so work under the pin computes the same bits whatever
    OPENBLAS_NUM_THREADS says. Yields whether it pinned: False, changing
    nothing, where numpy's BLAS exports no thread-count calls.
    """
    if _BLAS_THREADS is None:
        yield False
        return
    get, put = _BLAS_THREADS
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


class _Drawn:
    """The rng of one slice's forward: hands back, call by call, the dropout
    uniforms train_step drew for the slice before any slice ran."""

    def __init__(self, draws: list[np.ndarray]):
        self._draws = iter(draws)

    def random(self, size: int) -> np.ndarray:
        return next(self._draws)


# The slices call these through names bound here, once at import: the
# benchmark's tracer swaps the module attributes for wrappers that record
# spans in the process that calls them, and half of a step's slices run in
# the worker process, whose spans no one reads.
_FORWARD, _BACKWARD, _LOSS = forward, backward, l2_loss_batch


def _run_slice(net, x, targets, masks, rows, draws, n, into=None):
    """The summed loss and the parameter gradients, added into into when
    given, of slice rows of a batch of n examples: its inputs x[rows] taken
    from the row source x, its dropout layers reading draws and its loss
    gradient scaled by len(rows) / n. BLAS is pinned to one thread
    (one_blas_thread) throughout, in whichever process runs the slice."""
    with one_blas_thread():
        out, cache = _FORWARD(net, x[rows], train_mode=True, rng=_Drawn(draws))
        loss, grad = _LOSS(out, targets[rows], masks[rows])
        grad *= len(rows) / n
        return loss * len(rows), _BACKWARD(net, cache, grad, into)


def _serve_slice(net, x, targets, masks, slot, request) -> float:
    """Run the slice (rows, draws, n) of request for a training worker: copy
    its gradients into slot and return its summed loss."""
    loss, grads = _run_slice(net, x, targets, masks, *request)
    for dst, g in zip(slot, grads):
        if dst is not None:
            np.copyto(dst["w"], g["w"])
            np.copyto(dst["b"], g["b"])
    return loss


def _shared_like(params: list[dict | None], buf, at: int) -> tuple[list[dict | None], int]:
    """Arrays shaped like params' in buf, one after another from byte at,
    each at a 64-byte boundary, and the byte after the last."""
    views: list[dict | None] = []
    for p in params:
        views.append(None if p is None else {})
        for key in () if p is None else ("w", "b"):
            views[-1][key] = np.frombuffer(buf, p[key].dtype, p[key].size, at).reshape(p[key].shape)
            at += -(-p[key].nbytes // 64) * 64
    return views, at


@contextmanager
def slice_worker(net: Network, x, targets: np.ndarray, masks: np.ndarray):
    """The worker that train_step runs the odd slices of net on, for the row
    source x with its targets and masks: the triple (child, slot,
    forked_with). child is what workers.forked yields on entry; it runs
    each slice (rows, draws, n) sent to it, replies with its summed loss
    and leaves its gradients in slot, arrays shared with the caller.
    forked_with is (net, x, targets, masks), the only arguments whose
    slices child can run.

    While the block runs, net.params are arrays of the same values in one
    anonymous shared mapping, made before the fork, which train_step's
    in-place updates keep current for the worker; on exit the net's own
    arrays, the same objects as before, take the trained values back, after
    the worker has been killed and waited for.
    """
    import mmap  # here, so a process that never trains does not load it

    own = net.params
    size = sum(p[key].nbytes + 64 for p in own if p is not None for key in ("w", "b"))
    buf = mmap.mmap(-1, 2 * size + 1)  # the parameters, then one slice's gradients
    shared, end = _shared_like(own, buf, 0)
    slot = _shared_like(own, buf, end)[0]
    for p, s in zip(own, shared):
        if p is not None:
            s["w"][...], s["b"][...] = p["w"], p["b"]
    net.params = shared
    try:
        with workers.forked(partial(_serve_slice, net, x, targets, masks, slot), "training") as child:
            yield child, slot, (net, x, targets, masks)
    finally:
        for p, s in zip(own, shared):
            if p is not None:
                p["w"][...], p["b"][...] = s["w"], s["b"]
        net.params = own


def train_step(
    net: Network,
    state: OptimizerState,
    x,
    targets: np.ndarray,
    masks: np.ndarray,
    rows: np.ndarray,
    rng: np.random.Generator,
    worker,
) -> float:
    """One adaptive-gradient update from a mini-batch; returns its mean loss.

    x is a row source of m examples: anything whose len() is m and whose
    x[idx], for an int index array idx, is those rows as an (len(idx),
    *input_size) array, such as the array of every example or a
    cascade.StoreInputs, which crops them with cascade.net_input when asked.
    targets is (m, 2k) and masks (m, k). The batch is the n examples that
    the index array rows picks from them. The batch runs forward, loss and
    backward in consecutive slices of a few rows, each slice's loss
    gradient scaled by len(slice) / n, and one adagrad_step applies the sum
    of the slices' parameter gradients: the update of the whole batch, up to
    float rounding. Each slice's rows are taken from x just before the slice
    runs, by whoever runs it, so the step never holds the whole batch's
    inputs. Before any slice runs, every slice's dropout uniforms are drawn
    from rng, slice by slice and dropout layer by dropout layer: the stream
    the slices would draw one after another, which for one dropout layer is
    a whole-batch forward's.

    Slices run in pairs (workers.pairs): slice 2i + 1 is sent to the child
    of worker, which slice_worker made for this net, x, targets and masks,
    while the calling thread runs slice 2i and adds its gradients into the
    running sum as backward computes them; then the gradients the child
    left in the slot are added. worker may be None for a batch of one
    slice. The step sums in slice order and every slice pins BLAS to one
    thread (see _run_slice), so its bits depend on neither the worker nor
    the thread count.

    A slice holds as many examples as keep its largest conv im2col matrix
    within SLICE_BYTES (see _slice_size), so bigger inputs and float64 nets
    get smaller slices.
    """
    n = len(rows)
    if n == 0:
        raise InvalidArgumentError("a training step needs a non-empty batch")
    if len(targets) != len(x) or len(masks) != len(x):
        raise ShapeError("inputs, targets and masks must have equal length")
    step = _slice_size(net) or n
    parts = [rows[lo : lo + step] for lo in range(0, n, step)]
    shapes = [net.input_size, *chain_shapes(net.layers, net.input_size)]
    dropout_sizes = [math.prod(shapes[i]) for i, s in enumerate(net.layers) if isinstance(s, Dropout)]
    requests = [(p, [rng.random(len(p) * size) for size in dropout_sizes], n) for p in parts]
    child, slot, forked_with = worker if len(parts) > 1 else (None, None, ())
    if any(a is not b for a, b in zip((net, x, targets, masks), forked_with)):
        raise ContractViolationError("a forked worker runs slices of the net and rows it was forked with")

    summed, total = None, 0.0

    def run(request) -> float:
        nonlocal summed
        loss, summed = _run_slice(net, x, targets, masks, *request, summed)
        return loss

    for i, loss in enumerate(workers.pairs(child, run, requests)):
        total += loss
        if i % 2:  # the worker's slice: its gradients are in the slot until the next send
            for acc, g in zip(summed, slot):
                if acc is not None:
                    acc["w"] += g["w"]
                    acc["b"] += g["b"]
    adagrad_step(net, summed, state)
    return total / n


def train_epochs(
    net: Network,
    inputs,
    targets: np.ndarray,
    masks: np.ndarray,
    config: TrainConfig,
    progress=None,
) -> Network:
    """Shuffled mini-batch SGD with adaptive-gradient updates.

    inputs is a row source of n examples matching the net input (see
    train_step): an (n, *input_size) array, or an object that makes the
    rows a slice asks for. targets is (n, 2k) and masks (n, k).
    Each mini-batch is one train_step: one update from the mean gradient over
    the batch's examples, computed in slices of a few examples whose size
    follows the SLICE_BYTES budget, two slices at a time: the calling
    process runs one and a worker process, forked once per call (see
    slice_worker), the other. Where a batch is never more than one slice,
    or no epoch runs, no worker is forked.
    progress, when given, is called as progress(epoch_index, mean_epoch_loss).
    Deterministic for a fixed seed, whatever the BLAS thread count where
    BLAS can be pinned (see train_step).
    """
    n = len(inputs)
    if n == 0:
        raise InvalidArgumentError("training needs a non-empty dataset")
    if len(targets) != n or len(masks) != n:
        raise ShapeError("inputs, targets and masks must have equal length")
    rng = np.random.default_rng(config.seed)
    state = OptimizerState.for_network(net, config.learning_rate)
    paired = config.epochs > 0 and 0 < _slice_size(net) < min(n, config.batch_size)
    with slice_worker(net, inputs, targets, masks) if paired else nullcontext() as worker:
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            total = 0.0
            for lo in range(0, n, config.batch_size):
                idx = order[lo : lo + config.batch_size]
                total += train_step(net, state, inputs, targets, masks, idx, rng, worker) * len(idx)
            if progress is not None:
                progress(epoch, total / n)
    return net

"""Minimal trainable feed-forward convolutional network engine.

The regressor is a stack of layers (conv / relu / cross-channel response
normalization / max-pool / fully-connected / dropout) computing a 2k-vector of
normalized joint coordinates from an image tensor. Everything runs on numpy in
the dtype of the network's parameters: float32 for the cascade stages, float64
(the `init_network` default) for gradient checks. Forward caches activations,
backward produces exact reverse-mode gradients, and updates follow the
adaptive-gradient rule (squared gradients accumulate per parameter and scale
the step down over time).

Array layout is (height, width, channels) per example; batches prepend N.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import container
from .errors import (
    ContractViolationError,
    InvalidArgumentError,
    ShapeError,
)

MAGIC = b"PCNET\n"
FORMAT_VERSION = 2  # 2 added the header's "dtype"; version-1 files are float64

# compute dtypes a network may carry, with their little-endian file codes
_DTYPE_CODES = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


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
    return _KIND_TO_CLS[kind](**d)


# ---------------------------------------------------------------------------
# shape chaining


def _chain_shapes(layers: list[LayerSpec], input_size: tuple[int, ...]) -> list[tuple[int, ...]]:
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


def _param_shapes(
    layers: list[LayerSpec], input_size: tuple[int, ...], output_dim: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """(weight shape, bias shape) per layer, None for parameter-free layers.

    Raises if the layers do not chain or do not flatten to output_dim.
    """
    shapes = _chain_shapes(layers, input_size)
    final = shapes[-1] if shapes else tuple(input_size)
    if int(np.prod(final)) != output_dim:
        raise ShapeError(
            f"final layer produces {int(np.prod(final))} values, expected output_dim={output_dim}"
        )
    out = []
    in_shape = tuple(int(s) for s in input_size)
    for spec, out_shape in zip(layers, shapes):
        if isinstance(spec, Conv):
            out.append(((spec.size, spec.size, in_shape[2], spec.filters), (spec.filters,)))
        elif isinstance(spec, FullyConnected):
            out.append(((int(np.prod(in_shape)), spec.units), (spec.units,)))
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
        if self.dtype not in _DTYPE_CODES:
            raise InvalidArgumentError(f"unsupported network dtype {self.dtype}")
        for p in self.params:
            if p is not None and (p["w"].dtype != self.dtype or p["b"].dtype != self.dtype):
                raise InvalidArgumentError(f"parameters must all be {self.dtype}")

    def param_count(self) -> int:
        return sum(p["w"].size + p["b"].size for p in self.params if p is not None)

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
    for shp in _param_shapes(layers, input_size, output_dim):
        if shp is None:
            params.append(None)
            continue
        w_shape, b_shape = shp
        std = 1.0 / np.sqrt(int(np.prod(w_shape[:-1])))  # fan_in
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
    single: bool  # input came without a batch axis
    run_order: list[int]  # layer indices in the order forward ran them


def _run_order(layers: list[LayerSpec]) -> list[int]:
    """Layer indices in execution order.

    A ReLU that directly feeds a MaxPool runs after it, on the pooled map,
    which is size^2 times smaller. For finite inputs the two orders agree
    bit for bit: max and ReLU commute, and a window whose max is <= 0 gets
    zero gradient either way.
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


def _lrn_window_sum(s: np.ndarray, radius: int) -> np.ndarray:
    """Sum of s over the clamped channel window [c-radius, c+radius]."""
    c = s.shape[-1]
    cs = np.concatenate([np.zeros(s.shape[:-1] + (1,), s.dtype), np.cumsum(s, axis=-1)], axis=-1)
    hi = np.minimum(np.arange(c) + radius, c - 1) + 1
    lo = np.maximum(np.arange(c) - radius, 0)
    return cs[..., hi] - cs[..., lo]


def forward(
    net: Network,
    x: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the net on one example or a batch.

    Returns (output, cache). For a single (h, w, c) input the output is a flat
    (output_dim,) vector; for a (n, h, w, c) batch it is (n, output_dim). The
    cache feeds backward(). Dropout draws from rng only in train mode. x is
    cast to the net's dtype, and so is everything computed from it.
    """
    x = np.asarray(x, dtype=net.dtype)
    single = x.ndim == len(net.input_size)
    if single:
        x = x[None]
    if x.shape[1:] != tuple(net.input_size):
        raise ShapeError(f"input shape {x.shape[1:]} does not match net input {net.input_size}")
    if train_mode and rng is None and any(isinstance(s, Dropout) for s in net.layers):
        raise InvalidArgumentError("train-mode forward through dropout needs an rng")

    order = _run_order(net.layers)
    caches: list = [None] * len(net.layers)
    for idx in order:
        spec, p = net.layers[idx], net.params[idx]
        if isinstance(spec, Conv):
            # im2col: one contiguous copy of the input windows, then a GEMM;
            # (kh, kw, c) minor order matches the (kh, kw, c, f) weight layout
            windows = np.lib.stride_tricks.sliding_window_view(x, (spec.size, spec.size), axis=(1, 2))
            windows = windows[:, :: spec.stride, :: spec.stride]
            n, oh, ow = windows.shape[:3]
            cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, -1)
            wmat = p["w"].reshape(-1, spec.filters)
            y = (cols @ wmat + p["b"]).reshape(n, oh, ow, spec.filters)
            caches[idx] = {"cols": cols, "in_shape": x.shape, "out_hw": (oh, ow)}
            x = y
        elif isinstance(spec, ReLU):
            mask = x > 0
            caches[idx] = {"mask": mask}
            x = np.where(mask, x, 0.0)
        elif isinstance(spec, LRN):
            r = spec.depth // 2
            ssum = _lrn_window_sum(x * x, r)
            scale = spec.k_const + spec.alpha * ssum
            y = x * scale ** (-spec.beta)
            caches[idx] = {"x": x, "scale": scale, "radius": r}
            x = y
        elif isinstance(spec, MaxPool):
            s = spec.effective_stride
            if spec.size == 2 and s == 2:
                # fast path: tournament max over the four disjoint window cells
                n, h, w, ch = x.shape
                oh, ow = (h - 2) // 2 + 1, (w - 2) // 2 + 1
                x6 = x[:, : 2 * oh, : 2 * ow, :].reshape(n, oh, 2, ow, 2, ch)
                a, b = x6[:, :, 0, :, 0, :], x6[:, :, 0, :, 1, :]
                cc, d = x6[:, :, 1, :, 0, :], x6[:, :, 1, :, 1, :]
                top = a >= b
                m1 = np.where(top, a, b)
                bot = cc >= d
                m2 = np.where(bot, cc, d)
                first = m1 >= m2  # ties route to the earlier (row-major) cell
                y = np.where(first, m1, m2)
                arg = np.where(first, np.where(top, 0, 1), np.where(bot, 2, 3))
            else:
                windows = np.lib.stride_tricks.sliding_window_view(
                    x, (spec.size, spec.size), axis=(1, 2)
                )[:, ::s, ::s]  # (n, oh, ow, c, p, p)
                n, oh, ow, c = windows.shape[:4]
                flat = windows.reshape(n, oh, ow, c, spec.size * spec.size)
                arg = np.argmax(flat, axis=-1)  # first max in row-major window order
                y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
            caches[idx] = {"arg": arg, "in_shape": x.shape}
            x = y
        elif isinstance(spec, FullyConnected):
            orig_shape = x.shape
            flat = x.reshape(x.shape[0], -1)
            y = flat @ p["w"] + p["b"]
            caches[idx] = {"x": flat, "orig_shape": orig_shape}
            x = y
        elif isinstance(spec, Dropout):
            if train_mode:
                mask = rng.random(x.shape) < spec.keep_prob
                x = x * mask / spec.keep_prob
                caches[idx] = {"mask": mask}
            else:
                caches[idx] = {"mask": None}

    out = x.reshape(x.shape[0], -1)
    cache = ForwardCache(id(net), net.version, caches, out.shape, single, order)
    return (out[0] if single else out), cache


def backward(net: Network, cache: ForwardCache, output_grad: np.ndarray) -> list[dict | None]:
    """Reverse-mode gradients of a scalar loss w.r.t. every parameter.

    output_grad is dLoss/dOutput with the same leading shape the forward
    produced. Gradients sum over the batch axis.
    """
    if cache.net_id != id(net) or cache.net_version != net.version:
        raise ContractViolationError("forward cache does not belong to this network state")
    dt = net.dtype
    g = np.asarray(output_grad, dtype=dt)
    if cache.single:
        if g.shape != (cache.output_shape[1],):
            raise ShapeError(f"output_grad shape {g.shape} does not match {cache.output_shape[1:]}")
        g = g[None]
    elif g.shape != cache.output_shape:
        raise ShapeError(f"output_grad shape {g.shape} does not match {cache.output_shape}")

    grads: list[dict | None] = [None] * len(net.layers)
    for idx in reversed(cache.run_order):
        spec, p, c = net.layers[idx], net.params[idx], cache.layer_caches[idx]
        if isinstance(spec, Conv):
            cols, in_shape = c["cols"], c["in_shape"]
            oh, ow = c["out_hw"]
            n, ch = in_shape[0], in_shape[3]
            gmat = g.reshape(n * oh * ow, spec.filters)
            db = gmat.sum(axis=0)
            dw = (cols.T @ gmat).reshape(spec.size, spec.size, ch, spec.filters)
            grads[idx] = {"w": dw, "b": db}
            if idx == cache.run_order[0]:
                continue  # nothing below consumes the input gradient
            # scatter the column gradients back; output tap (h, w) touched
            # input pixel (i + s*h, j + s*w)
            wmat = p["w"].reshape(-1, spec.filters)
            dx = np.zeros(in_shape, dt)
            s = spec.stride
            dcols = (gmat @ wmat.T).reshape(n, oh, ow, spec.size, spec.size, ch)
            for i in range(spec.size):
                for j in range(spec.size):
                    dx[:, i : i + s * oh : s, j : j + s * ow : s, :] += dcols[:, :, :, i, j, :]
            g = dx
        elif isinstance(spec, ReLU):
            g = g.reshape(c["mask"].shape) * c["mask"]
        elif isinstance(spec, LRN):
            xin, scale, r = c["x"], c["scale"], c["radius"]
            g = g.reshape(xin.shape)
            inv = scale ** (-spec.beta)
            inner = _lrn_window_sum(g * xin * scale ** (-spec.beta - 1.0), r)
            g = g * inv - 2.0 * spec.alpha * spec.beta * xin * inner
        elif isinstance(spec, MaxPool):
            arg, in_shape = c["arg"], c["in_shape"]
            n, oh, ow, ch = arg.shape
            g = g.reshape(arg.shape)
            s = spec.effective_stride
            dx = np.zeros(in_shape, dt)
            if spec.size == 2 and s == 2:
                buf = np.empty((n, oh, 2, ow, 2, ch), dt)
                for cell in range(4):
                    buf[:, :, cell // 2, :, cell % 2, :] = np.where(arg == cell, g, 0.0)
                dx[:, : 2 * oh, : 2 * ow, :] = buf.reshape(n, 2 * oh, 2 * ow, ch)
            else:
                wi, wj = np.divmod(arg, spec.size)
                hh = np.arange(oh)[None, :, None, None] * s + wi
                ww = np.arange(ow)[None, None, :, None] * s + wj
                nn_idx = np.arange(n)[:, None, None, None]
                cc = np.arange(ch)[None, None, None, :]
                if s >= spec.size:
                    dx[nn_idx, hh, ww, cc] = g  # windows disjoint, plain scatter
                else:
                    np.add.at(dx, (nn_idx, hh, ww, cc), g)
            g = dx
        elif isinstance(spec, FullyConnected):
            xin = c["x"]
            g = g.reshape(xin.shape[0], -1)
            grads[idx] = {"w": xin.T @ g, "b": g.sum(axis=0)}
            g = (g @ p["w"].T).reshape(c["orig_shape"])
        elif isinstance(spec, Dropout):
            if c["mask"] is not None:
                g = g.reshape(c["mask"].shape) * c["mask"] / spec.keep_prob
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
    learning_rate: float = 0.0005
    epsilon: float = 1e-8

    @classmethod
    def for_network(cls, net: Network, learning_rate: float = 0.0005) -> "OptimizerState":
        return cls(net.zeroed_like(), learning_rate)


def adagrad_step(
    net: Network, grads: list[dict | None], state: OptimizerState
) -> tuple[Network, OptimizerState]:
    """In-place update: accum += g^2; param -= lr * g / (sqrt(accum) + eps)."""
    for p, g, a in zip(net.params, grads, state.accum):
        if p is None:
            continue
        for key in ("w", "b"):
            if p[key].shape != g[key].shape:
                raise ShapeError(f"gradient shape {g[key].shape} != param shape {p[key].shape}")
            a[key] += g[key] * g[key]
            p[key] -= state.learning_rate * g[key] / (np.sqrt(a[key]) + state.epsilon)
    net.version += 1
    return net, state


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 128
    learning_rate: float = 0.0005
    dropout_keep: float = 0.6  # consumed where the layer stack is built
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise InvalidArgumentError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidArgumentError(f"batch size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise InvalidArgumentError(f"learning rate must be positive, got {self.learning_rate}")


def train_epochs(
    net: Network,
    inputs: np.ndarray,
    targets: np.ndarray,
    masks: np.ndarray,
    config: TrainConfig,
    progress=None,
) -> Network:
    """Shuffled mini-batch SGD with adaptive-gradient updates.

    inputs is (n, ...) matching the net input, targets (n, 2k), masks (n, k).
    The per-batch gradient is the mean over batch examples. progress, when
    given, is called as progress(epoch_index, mean_epoch_loss). Deterministic
    for a fixed seed (single-threaded).
    """
    n = len(inputs)
    if n == 0:
        raise InvalidArgumentError("training needs a non-empty dataset")
    if len(targets) != n or len(masks) != n:
        raise ShapeError("inputs, targets and masks must have equal length")
    rng = np.random.default_rng(config.seed)
    state = OptimizerState.for_network(net, config.learning_rate)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            out, cache = forward(net, inputs[idx], train_mode=True, rng=rng)
            loss, grad = l2_loss_batch(out, targets[idx], masks[idx])
            grads = backward(net, cache, grad)
            adagrad_step(net, grads, state)
            total += loss * len(idx)
        if progress is not None:
            progress(epoch, total / n)
    return net


def evaluate_loss(net: Network, inputs, targets, masks, batch_size: int = 256) -> float:
    """Mean per-example masked loss in inference mode (no dropout)."""
    n = len(inputs)
    total = 0.0
    for lo in range(0, n, batch_size):
        xb = inputs[lo : lo + batch_size]
        out, _ = forward(net, xb)
        loss, _ = l2_loss_batch(out, targets[lo : lo + batch_size], masks[lo : lo + batch_size])
        total += loss * len(xb)
    return total / n


# ---------------------------------------------------------------------------
# serialization: container header (format version, dtype, layers, shapes),
# then each parameter array as raw little-endian floats of that dtype


def network_to_bytes(net: Network) -> bytes:
    code = _DTYPE_CODES[net.dtype]
    header = {
        "format_version": FORMAT_VERSION,
        "dtype": code,
        "input_size": list(net.input_size),
        "output_dim": net.output_dim,
        "layers": [spec_to_dict(s) for s in net.layers],
        "param_shapes": [
            None if p is None else {"w": list(p["w"].shape), "b": list(p["b"].shape)}
            for p in net.params
        ],
    }
    blobs = [container.pack_header(MAGIC, header)]
    for p in net.params:
        if p is not None:
            blobs.append(np.ascontiguousarray(p["w"], dtype=code).tobytes())
            blobs.append(np.ascontiguousarray(p["b"], dtype=code).tobytes())
    return b"".join(blobs)


def network_from_bytes(data: bytes) -> Network:
    """Parse a network file; any malformed input raises InvalidArgumentError."""
    r = container.Reader(data, MAGIC, "network file")
    header = r.header()
    try:
        version = header["format_version"]
        if version == 1:
            code = "<f8"
        elif version == FORMAT_VERSION:
            code = header["dtype"]
        else:
            raise InvalidArgumentError(f"unsupported format version {version!r}")
        if code not in _CODE_DTYPES:
            raise InvalidArgumentError(f"unsupported parameter dtype {code!r}")
        layers = [spec_from_dict(d) for d in header["layers"]]
        input_size = tuple(int(s) for s in header["input_size"])
        output_dim = int(header["output_dim"])
        shapes = _param_shapes(layers, input_size, output_dim)
        declared = header["param_shapes"]
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise InvalidArgumentError(f"malformed network header: {e!r}") from None
    if declared != [None if s is None else {"w": list(s[0]), "b": list(s[1])} for s in shapes]:
        raise InvalidArgumentError("network header: param_shapes do not match the layers")
    params = [
        None if s is None else {"w": r.array(code, s[0]), "b": r.array(code, s[1])}
        for s in shapes
    ]
    r.finish()
    for idx, p in enumerate(params):
        if p is not None and not (np.isfinite(p["w"]).all() and np.isfinite(p["b"]).all()):
            raise InvalidArgumentError(
                f"layer {idx} ({_CLS_TO_KIND[type(layers[idx])]}) has non-finite parameters"
            )
    return Network(input_size, layers, params, output_dim, dtype=_CODE_DTYPES[code])


def save_network(net: Network, path) -> None:
    with open(path, "wb") as f:
        f.write(network_to_bytes(net))


def load_network(path) -> Network:
    with open(path, "rb") as f:
        return network_from_bytes(f.read())

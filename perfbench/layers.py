"""Forward and backward time of each layer of the default stack at batch 128.

Every layer runs as a one-layer network built by `nn.init_network` at its
chained input shape, on the previous layer's real output. `nn.backward`
skips the input gradient of a conv at index 0, so each conv runs behind a
ReLU whose own time is then subtracted; that way the col2im scatter is
timed, on the `ch <= 2` path (first conv) and the general path (second
conv). An LRN and an overlapping 3x3/2 max-pool at the first conv's output
cover the layers the default stack leaves out, the latter being the
general-stride pool path next to the stack's 2x2 fast path.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from posecascade import cascade, nn

BATCH = 128
INPUT_SIZE = (60, 60, 1)
OUTPUT_DIM = 18  # 9 joints x 2


def _out_shape(spec, shape):
    if isinstance(spec, nn.FullyConnected):
        return (spec.units,)
    if isinstance(spec, nn.Conv):
        size, stride, ch = spec.size, spec.stride, spec.filters
    elif isinstance(spec, nn.MaxPool):
        size, stride, ch = spec.size, spec.effective_stride, shape[2]
    else:
        return shape
    return ((shape[0] - size) // stride + 1, (shape[1] - size) // stride + 1, ch)


def _time(specs, x, rng, reps):
    """Median forward and backward ms of a network of `specs` on batch x."""
    in_shape = x.shape[1:]
    out_shape = in_shape
    for spec in specs:
        out_shape = _out_shape(spec, out_shape)
    net = nn.init_network(specs, in_shape, int(np.prod(out_shape)), seed=0)
    fwd, bwd = [], []
    for _ in range(reps + 1):  # the first round warms up and is dropped
        t0 = perf_counter()
        out, cache = nn.forward(net, x, train_mode=True, rng=rng)
        t1 = perf_counter()
        nn.backward(net, cache, rng.standard_normal(out.shape))
        t2 = perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return median(fwd[1:]) * 1e3, median(bwd[1:]) * 1e3, out.reshape((len(x),) + out_shape)


def layer_metrics(reps: int = 5, seed: int = 0) -> dict[str, float]:
    """nn.layer.<idx>.<kind>.{fwd,bwd}_ms for the default stack, plus extras."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, size=(BATCH,) + INPUT_SIZE)
    out: dict[str, float] = {}
    conv1_out = None
    for idx, spec in enumerate(cascade.default_layers(0.6, OUTPUT_DIM)):
        name = f"nn.layer.{idx}.{nn.spec_to_dict(spec)['kind']}"
        if isinstance(spec, nn.Conv):
            f, b, y = _time([nn.ReLU(), spec], x, rng, reps)
            rf, rb, _ = _time([nn.ReLU()], x, rng, reps)
            f, b = f - rf, b - rb
        else:
            f, b, y = _time([spec], x, rng, reps)
        out[f"{name}.fwd_ms"], out[f"{name}.bwd_ms"] = f, b
        if idx == 0:
            conv1_out = y
        x = y
    for name, spec in (("lrn", nn.LRN()), ("maxpool3s2", nn.MaxPool(3, 2))):
        f, b, _ = _time([spec], conv1_out, rng, reps)
        out[f"nn.layer.{name}.fwd_ms"], out[f"nn.layer.{name}.bwd_ms"] = f, b
    return out

"""Central-difference gradient checking shared by the nn and acceptance tests."""

import numpy as np

from posecascade import nn


def loss_and_grads(net, x, target, mask, rng_seed=None):
    """Scalar masked L2 loss plus analytic parameter gradients of the one
    example x, run as a batch of one through a train-mode forward, the only
    kind backward accepts.

    A net with dropout needs rng_seed: a fresh rng per call keeps dropout
    masks identical across the repeated forwards a finite-difference sweep
    makes.
    """
    rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    out, cache = nn.forward(net, x[None], train_mode=True, rng=rng)
    loss, grad = nn.l2_loss_batch(out, target[None], mask[None])
    return loss, nn.backward(net, cache, grad)


def max_rel_error(net, x, target, mask, step=1e-6, rng_seed=None):
    """Worst relative disagreement between backprop and central differences."""
    _, grads = loss_and_grads(net, x, target, mask, rng_seed)

    def loss_only():
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        out, _ = nn.forward(net, x[None], train_mode=True, rng=rng)
        loss, _ = nn.l2_loss_batch(out, target[None], mask[None])
        return loss

    worst = 0.0
    for li, p in enumerate(net.params):
        if p is None:
            continue
        for key in ("w", "b"):
            arr = p[key]
            analytic = grads[li][key]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + step
                lp = loss_only()
                arr[i] = orig - step
                lm = loss_only()
                arr[i] = orig
                numeric = (lp - lm) / (2 * step)
                denom = max(abs(numeric), abs(analytic[i]), 1e-6)
                worst = max(worst, abs(numeric - analytic[i]) / denom)
    return worst

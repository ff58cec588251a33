"""Time one float32 training step of the default stack at batch 128.

A step is one `nn.train_step`, the call `nn.train_epochs` makes per
mini-batch, on a batch of 128 random 60x60x1 float32 crops through the
cascade's default layers (the stage networks' stack, 9 joints): forward, loss
and backward in slices of the batch, then one adaptive-gradient update. BLAS
is pinned to one thread before numpy loads. The steps run as `nn.train_epochs`
runs them: slices in pairs, the odd ones on a worker process forked by
`nn.slice_worker` (on the calling thread, one after another, where there is
no fork), each slice pinning BLAS through numpy's OpenBLAS thread-count call
where `nn` finds one. The header line names the path that ran and whether
`nn` pins BLAS. The path is read from the change in RUSAGE_CHILDREN's minor
faults across the worker's block: whether a worker process ended and was
waited for. RUSAGE_CHILDREN survives `exec`, so it is read before the block,
not taken as zero: a launcher (a version manager's shim, say) that runs
commands and then `exec`s the interpreter leaves its children's usage in it.
After one untimed warm-up step it runs `--steps` steps and prints the
median milliseconds per step, the minor page faults per step and the peak
RSS of this process, then the same two figures of the worker. Its faults
are that change, per step over every step it ran, the warm-up and its
start after the fork included. Its peak RSS counts the pages it shares with
this process. It is RUSAGE_CHILDREN's ru_maxrss, a maximum over every child
waited for, a launcher's included, not a sum, so no change across the block
can be taken from it:

    python3 tools/train_step.py --steps 50

It runs the `posecascade` package under `src/` next to this file.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BATCH = 128


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--steps", type=int, default=30, help="timed steps (default 30)")
    args = p.parse_args(argv)
    if args.steps < 1:
        p.error("--steps must be >= 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    from posecascade import cascade, data, nn

    k = len(data.JOINT_NAMES)
    config = cascade.StageConfig(sigma=1.0)
    net = config.build_network(2 * k)
    rng = np.random.default_rng(0)
    x = (rng.random((BATCH,) + config.input_size) - 0.5).astype(np.float32)
    target = rng.uniform(-0.5, 0.5, (BATCH, 2 * k))
    mask = np.ones((BATCH, k), dtype=bool)
    state = nn.OptimizerState.for_network(net, config.train.learning_rate)
    rows = np.arange(BATCH)

    before = resource.getrusage(resource.RUSAGE_CHILDREN)  # non-zero after a launcher's exec
    with nn.slice_worker(net, x, target, mask) as worker:

        def step() -> float:
            t0 = time.perf_counter()
            nn.train_step(net, state, x, target, mask, rows, rng, worker)
            return time.perf_counter() - t0

        step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        times = [step() for _ in range(args.steps)]
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    own, worker_use = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    worker_faults = worker_use.ru_minflt - before.ru_minflt
    pin = "pinned by nn" if nn._BLAS_THREADS else "environment only"
    path = "in pairs with a worker process" if worker_faults else "one after another"
    print(f"steps {args.steps}  batch {BATCH}  float32  BLAS threads 1 ({pin})  slices {path}")
    print(f"step_ms {np.median(times) * 1e3:.1f}")
    print(f"minor_faults_per_step {faults / args.steps:.0f}")
    print(f"maxrss_mb {own.ru_maxrss / 1024:.1f}")
    print(f"worker_minor_faults_per_step {worker_faults / (args.steps + 1):.0f}")
    print(f"worker_maxrss_mb {worker_use.ru_maxrss / 1024:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

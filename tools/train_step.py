"""Time one float32 training step of the default stack at batch 128.

A step is one `nn.train_step`, the call `nn.train_epochs` makes per
mini-batch, on a batch of 128 random 60x60x1 float32 crops through the
cascade's default layers (the stage networks' stack, 9 joints): forward, loss
and backward in slices of the batch, then one adaptive-gradient update. BLAS
is pinned to one thread before numpy loads. The steps run as `nn.train_epochs`
runs them, inside `nn.slice_worker`: slices in pairs on two threads, with
BLAS pinned through numpy's OpenBLAS thread-count call where it has one; the
header line names the path and whether that pin took. After one untimed
warm-up step it runs `--steps` steps and prints the median milliseconds per
step and the minor page faults per step:

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
    state = nn.OptimizerState.for_network(net)

    with nn.one_blas_thread() as pinned, nn.slice_worker() as worker:

        def step() -> float:
            t0 = time.perf_counter()
            nn.train_step(net, state, x, target, mask, rng, worker)
            return time.perf_counter() - t0

        step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        times = [step() for _ in range(args.steps)]
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    pin = "pinned by nn" if pinned else "environment only"
    print(f"steps {args.steps}  batch {BATCH}  float32  BLAS threads 1 ({pin})  slices in pairs on 2 threads")
    print(f"step_ms {np.median(times) * 1e3:.1f}")
    print(f"minor_faults_per_step {faults / args.steps:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""posecascade benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload train|predict --seed N --seconds S --trace 0|1

Imports the package from the checkout's `src/` and runs bench.main; see
README.md for the workloads, metrics and checks. Exits 2 without a result
when the package source is not there.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: on a shared 2-core machine a second thread waits on the
# other tenant's core, which made per-image latency and stage-1 time both
# slower and more variable than one thread did. Set before numpy loads.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "predict"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "posecascade" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}; run from a posecascade checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import posecascade

    if not Path(posecascade.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported posecascade from {posecascade.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.main(args, ROOT, int(BLAS_THREADS))


if __name__ == "__main__":
    sys.exit(main())

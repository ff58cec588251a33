"""Print the sha256 of every file a small fixed-seed run writes.

The run synthesises 40 training figures (seed 11) and 20 held-out figures
(seed 12), trains a three-stage cascade on them (`--stages 3 --epochs 3
--refine-epochs 1 --crops-per-joint 3 --seed 1`) and evaluates it on the
held-out set, all in a temporary directory with BLAS pinned to one thread
(OpenBLAS can round float32 sums differently at other thread counts).
Every `posecascade` command pins BLAS to one thread itself, so the bytes
no longer depend on this environment pin; it stays for runs of checkouts
made before that. A change that keeps model bytes
prints the same lines as its parent; run it in both checkouts and compare:

    python3 tools/model_bytes.py > after.txt

It runs the `posecascade` package under `src/` next to this file.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _cli(cwd: Path, *args: str) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "posecascade.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"posecascade {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _cli(root, "synth", "--out", "train", "--count", "40", "--seed", "11")
        _cli(root, "synth", "--out", "heldout", "--count", "20", "--seed", "12")
        _cli(root, "train", "--train", "train/manifest.txt", "--heldout", "heldout/manifest.txt",
             "--out", "run", "--stages", "3", "--epochs", "3", "--refine-epochs", "1",
             "--crops-per-joint", "3", "--seed", "1")
        _cli(root, "eval", "--model", "run/cascade.model", "--manifest", "heldout/manifest.txt",
             "--out", "run/eval")
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

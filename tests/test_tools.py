"""Smoke tests of the measurement scripts in tools/."""

import re
import subprocess
import sys
from pathlib import Path

from posecascade import nn

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_train_step_prints_its_medians_and_faults():
    proc = subprocess.run([sys.executable, str(TOOLS / "train_step.py"), "--steps", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the header names the path that ran and whether nn could pin numpy's OpenBLAS
    pin = "pinned by nn" if nn._BLAS_THREADS else "environment only"
    assert proc.stdout.splitlines()[0].endswith(f"BLAS threads 1 ({pin})  slices in pairs with a worker process")
    values = dict(re.findall(r"^(\w+) ([0-9.]+)$", proc.stdout, re.MULTILINE))
    assert set(values) == {"step_ms", "minor_faults_per_step", "maxrss_mb",
                           "worker_minor_faults_per_step", "worker_maxrss_mb"}
    assert float(values["step_ms"]) > 0
    assert float(values["worker_maxrss_mb"]) > 0  # the worker ran and was waited for


def test_model_bytes_lists_a_sha256_per_written_file():
    proc = subprocess.run([sys.executable, str(TOOLS / "model_bytes.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"BLAS kernel {nn.blas_kernel()}\n"  # bytes hold for one kernel
    lines = proc.stdout.splitlines()
    assert lines and all(re.fullmatch(r"[0-9a-f]{64}  [^/\s]\S*", line) for line in lines)
    paths = {line.split("  ", 1)[1] for line in lines}
    assert {"run/cascade.model", "run/eval/eval_stage3.json"} <= paths

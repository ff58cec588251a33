import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from posecascade import cascade, container
from posecascade.data import default_tree
from posecascade.errors import InvalidArgumentError
from posecascade.geometry import PoseTree, PoseVector


@pytest.fixture
def tiny_tree():
    # 4 joints: 0-1 and 2-3 limbs, torso pair (0, 3), mirror swaps (0,1)/(2,3)
    return PoseTree(4, limbs=[(0, 1), (2, 3)], torso_pairs=[(0, 3)],
                    left_right_swap=[(0, 1), (2, 3)])


def make_pose(points, mask=None) -> PoseVector:
    pts = np.asarray(points, dtype=float)
    if mask is None:
        mask = np.ones(len(pts), dtype=bool)
    return PoseVector(pts, np.asarray(mask, dtype=bool))


def file_with_param(model, array, index: int, value) -> bytes:
    """The model file of model, but with parameter array.flat[index] read as
    value: a file the writer refuses to make when value is not finite."""
    data = cascade.cascade_to_bytes(model)
    arrays = [p[key] for net in model.stages for p in net.params if p is not None
              for key in ("w", "b")]  # in file order, the last ending the file
    pos = next(i for i, a in enumerate(arrays) if a is array)
    at = len(data) - sum(a.nbytes for a in arrays[pos:]) + 4 * index
    return data[:at] + np.array([value], dtype="<f4").tobytes() + data[at + 4 :]


def wrapping_size_model() -> bytes:
    """A one-stage cascade file on a 4x1x1 input whose first weight holds
    4 * (2**62 + 1) values, then 4 KiB of zeros. Sized in int64 the byte
    count of that weight wraps to 16; sized exactly it exceeds the file."""
    tree = default_tree()
    header = {"format_version": cascade.CASCADE_FORMAT_VERSION, "sigma": 1.0,
              "input_size": [4, 1, 1], "stats": [None],
              "stages": [[{"kind": "fc", "units": 2**62 + 1}, {"kind": "fc", "units": 2 * tree.k}]],
              "tree": {"k": tree.k, **{name: [list(p) for p in getattr(tree, name)]
                                      for name in cascade._TREE_PAIRS}}}
    return container.pack_header(cascade.CASCADE_MAGIC, header) + bytes(4096)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory for the files of fuzzed parser inputs, shared by hypothesis examples."""
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def mutated(draw, base: bytes) -> bytes:
    """base cut short, with one bit flipped, or with 1-4 bytes inserted."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    if kind == "truncate":
        return base[: draw(st.integers(0, len(base) - 1))]
    if kind == "flip":
        bit = draw(st.integers(0, 8 * len(base) - 1))
        out = bytearray(base)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    at = draw(st.integers(0, len(base)))
    return base[:at] + draw(st.binary(min_size=1, max_size=4)) + base[at:]


def loads_or_is_rejected(load, path, content: bytes) -> None:
    """load(path) on a file holding content either returns or raises
    InvalidArgumentError; any other exception or a warning fails the test."""
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load(path)
        except InvalidArgumentError:
            pass


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes os.fork makes during the test."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.fixture
def time_bound():
    """Fails the test with TimeoutError if it runs for more than 60 s, where
    a worker that never answers would hang it."""

    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 60 s")

    before = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, before)

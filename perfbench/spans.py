"""Outside-in tracing: spans recorded around calls into the package's layers.

Each public function is replaced at the module attribute its callers look
up, so `cascade` calls to its by-name imports (`crop_resample`,
`joint_box`, `pose_diameter`) and the global lookups inside
`nn.train_epochs` are caught without changing the package. Spans live in
memory as [name, start, end, parent, count] and are written out once, when
the run ends. A span's self time is its duration minus that of its
children; calls nest strictly because the workloads run on one thread.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from posecascade import cascade, data, geometry, metrics, nn

NAME, START, END, PARENT, COUNT = range(5)


def _forward_name(args, kwargs):
    net, x = args[0], args[1]
    if kwargs.get("train_mode", args[2] if len(args) > 2 else False):
        return "nn.forward.train"
    batch = 1 if x.ndim == len(net.input_size) else x.shape[0]
    return f"nn.forward.infer.b{batch}" if batch in (1, 9) else "nn.forward.infer.bother"


# (module, attribute, span name or a function of the call's arguments,
#  count taken from (args, result) or None)
_PATCHES = [
    (data, "synth_generate", "data.synth_generate", None),
    (data, "load_examples", "data.load_examples", None),
    (nn, "forward", _forward_name, None),
    (nn, "backward", "nn.backward", None),
    (nn, "adagrad_step", "nn.adagrad_step", None),
    (nn, "l2_loss_batch", "nn.l2_loss_batch", None),
    (nn, "train_epochs", "nn.train_epochs", lambda args, res: len(args[1])),
    (cascade, "train_stage1", "cascade.train_stage1", None),
    (cascade, "fit_displacement_stats", "cascade.fit_displacement_stats", None),
    (cascade, "train_refinement_stage", "cascade.train_refinement_stage", None),
    (cascade, "predict", "cascade.predict", lambda args, res: int(res.truncated)),
    (cascade, "predict_many", "cascade.predict_many", None),
    (cascade, "save_cascade", "cascade.save_cascade", None),
    (cascade, "load_cascade", "cascade.load_cascade", None),
    (cascade, "crop_resample", "geometry.crop_resample", None),
    (cascade, "joint_box", "geometry.joint_box", None),
    (cascade, "pose_diameter", "geometry.pose_diameter", None),
    (geometry, "pose_diameter", "geometry.pose_diameter", None),
    (metrics, "pose_diameter", "geometry.pose_diameter", None),
    (metrics, "make_report", "metrics.make_report", None),
]


class Tracer:
    """Span recorder; wrappers installed by install() record while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def record(self, name: str):
        """Record the block as a root span, with the patched functions recording inside it."""
        self.active = True
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)
            self.active = False

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            s = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if count is not None:
                s[COUNT] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, count in _PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "count"], "spans": self.spans}, f)


class SpanTable:
    """Self times and totals of the spans under the root spans named root_name."""

    def __init__(self, spans: list[list], root_name: str):
        root = [0] * len(spans)
        self_s = [s[END] - s[START] for s in spans]
        self.nested = True
        for i, s in enumerate(spans):
            p = s[PARENT]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                self_s[p] -= s[END] - s[START]
                self.nested &= spans[p][START] <= s[START] and s[END] <= spans[p][END]
        self.keep = [i for i in range(len(spans)) if spans[root[i]][NAME] == root_name]
        self.roots = [i for i in self.keep if root[i] == i]
        self.wall_s = sum(spans[i][END] - spans[i][START] for i in self.roots)
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self._epochs: dict[str, list] = {}  # parent name -> [train_epochs seconds, samples]
        for i in self.keep:
            name, dur = spans[i][NAME], spans[i][END] - spans[i][START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s[i]
            self.count[name] = self.count.get(name, 0) + spans[i][COUNT]
            if name == "nn.train_epochs" and spans[i][PARENT] >= 0:
                acc = self._epochs.setdefault(spans[spans[i][PARENT]][NAME], [0.0, 0])
                acc[0] += dur
                acc[1] += spans[i][COUNT]

    def per_root(self, table: dict, name: str) -> float:
        """table[name] per root span, e.g. calls or seconds per repetition."""
        return table.get(name, 0) / max(len(self.roots), 1)

    def per_call(self, table: dict, name: str) -> float:
        calls = self.calls.get(name, 0)
        return table.get(name, 0.0) / calls if calls else 0.0

    def epochs_per_root(self, parent: str) -> tuple[float, float]:
        """Seconds in, and samples given to, nn.train_epochs under parent, per root."""
        secs, samples = self._epochs.get(parent, (0.0, 0))
        n = max(len(self.roots), 1)
        return secs / n, samples / n

    def build_per_root(self, name: str) -> float:
        """Seconds per root in name outside its nn.train_epochs child."""
        return self.per_root(self.total_s, name) - self.epochs_per_root(name)[0]

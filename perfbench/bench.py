"""Runs one workload, checks its outputs and reports its metrics.

Imported by run.py once the package is importable and the BLAS thread
count is set. With --trace 0 the last stdout line carries the end-to-end
metrics named in GATED; with --trace 1 it carries the per-layer metrics.
Lines before it list every metric with its unit, the operation counts
behind error_rate, the bases of every ratio and the environment. A JSON
record of the same (and, when tracing, the spans) goes to .perfbench-out/.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import layers
import workloads as w
from posecascade import cascade
from spans import SpanTable, Tracer

TRAIN_SETUPS = 5  # set-up is repeated and its median reported
PREDICT_SETUPS = 3
LATENCY_PER_REP = 200  # closed-loop predictions per serving repetition
TRAIN_SERVING_REPS = 3  # serving repetitions after each training: 600 latencies
PREDICT_MODEL_DATA_SEED = 0  # predict serves one fixed model; its requests vary with --seed

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "stage1_loss": "mse",
    "peak_rss_mb": "MiB",
    "pdj_0.1_stage1": "fraction",
    "pdj_0.1_final": "fraction",
    "pdj_0.2_final": "fraction",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "predict_ms_p99": "ms",
    "eval_images_per_s": "1/s",
}
# The metrics of BENCHMARK.json. The others are printed and recorded; their
# spread across seeds is too wide for any bound the benchmark may carry.
GATED = ("setup_s", "train_samples_per_s", "stage1_loss", "peak_rss_mb", "pdj_0.2_final",
         "predict_ms_p50", "predict_ms_p90", "eval_images_per_s")

_LAYER_NAMES = [
    "0.conv", "1.relu", "2.maxpool", "3.conv", "4.relu", "5.maxpool",
    "6.fc", "7.relu", "8.dropout", "9.fc", "lrn", "maxpool3s2",
]
PER_LAYER = {
    "data.synth_s": "s",
    "data.load_examples_s": "s",
    "geometry.crop_resample.calls": "count",
    "geometry.crop_resample.ms": "ms",
    "geometry.crop_resample.us_per_call": "us",
    "geometry.joint_box.calls": "count",
    "geometry.pose_diameter.calls": "count",
    "nn.forward.train.calls": "count",
    "nn.forward.train.ms_per_batch": "ms",
    "nn.backward.ms_per_batch": "ms",
    "nn.adagrad_step.ms": "ms",
    "nn.l2_loss_batch.ms": "ms",
    "nn.train_epochs.self_ms": "ms",
    **{f"nn.forward.infer.{b}.{m}": u for b in ("b1", "b9", "bother")
       for m, u in (("calls", "count"), ("ms_per_call", "ms"))},
    **{f"nn.layer.{n}.{d}_ms": "ms" for n in _LAYER_NAMES for d in ("fwd", "bwd")},
    "cascade.stage1_build_s": "s",
    "cascade.refine_build_s": "s",
    "cascade.refine_samples": "count",
    "cascade.refine_set_mb": "MiB",
    "cascade.fit_stats_s": "s",
    "cascade.predict.self_ms_per_image": "ms",
    "cascade.predict_many.s": "s",
    "cascade.truncated": "count",
    "cascade.save_ms": "ms",
    "cascade.load_ms": "ms",
    "cascade.model_bytes": "B",
    "metrics.make_report_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "trace.spans_per_rep": "count",
}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args, root: Path, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class Run:
    """State of one benchmark run: tracer, repetition walls and operation counts."""

    def __init__(self, args, workdir: Path, tracer: Tracer | None):
        self.args = args
        self.workdir = workdir
        self.tracer = tracer
        self.ops = {"training_examples": 0, "predictions": 0, "skipped_examples": 0,
                    "truncated": 0, "nonfinite": 0, "exceptions": 0}
        self.bases: dict = {}
        self.rep_walls: dict[bool, list[float]] = {False: [], True: []}  # keyed by traced

    def traced(self, rep: int) -> bool:
        """Trace runs alternate untraced and traced repetitions, untraced first."""
        return self.tracer is not None and rep % 2 == 1

    @contextmanager
    def phase(self, name: str, traced: bool):
        """Time a block; when traced, record it as a root span with tracing on."""
        timing = {}
        with self.tracer.record(name) if traced else nullcontext():
            t0 = perf_counter()
            yield timing
            timing["s"] = perf_counter() - t0

    def keep_going(self, start: float, rep: int) -> bool:
        """Start another repetition only if it should end within --seconds."""
        if rep < (2 if self.tracer else 1):
            return True
        elapsed = perf_counter() - start
        return elapsed + elapsed / rep <= self.args.seconds

    def check_served(self, served: list[dict]) -> None:
        for s in served:
            w.check_same(s["single"], s["many"])
            truncated, nonfinite = w.count_bad(s["single"] + s["many"])
            self.ops["predictions"] += len(s["single"]) + len(s["many"])
            self.ops["truncated"] += truncated
            self.ops["nonfinite"] += nonfinite


def run_train(run: Run) -> dict:
    seed = run.args.seed
    setups = []
    for i in range(TRAIN_SETUPS):
        with run.phase("bench.setup", run.tracer is not None) as t:
            inputs = w.make_inputs(run.workdir / f"setup{i}", 2 * seed, 2 * seed + 1, w.TRAIN_SIZE.figures)
        setups.append(t["s"])
    serving_reps = 1 if run.tracer else TRAIN_SERVING_REPS
    trainings, serving, first_model = [], [], None
    start, rep = perf_counter(), 0
    while run.keep_going(start, rep):
        traced = run.traced(rep)
        with run.phase("bench.rep", traced) as t:
            model, wall_s, losses = w.train_cascade(inputs.train, inputs.tree, w.TRAIN_SIZE)
            served = [w.serving_rep(model, inputs, LATENCY_PER_REP) for _ in range(serving_reps)]
        run.rep_walls[traced].append(t["s"])
        run.check_served(served)
        run.ops["training_examples"] += 2 * len(inputs.train)  # offered to each of the two stages
        model_bytes = w.check_round_trip(model, run.workdir)
        first_model = first_model or model_bytes
        w.check(model_bytes == first_model, "training is not deterministic: model bytes differ between repetitions")
        if not traced:
            trainings.append(w.training_summary(inputs.train, model, w.TRAIN_SIZE, wall_s, losses))
            serving += served
        rep += 1
    run.bases["repetitions"] = rep
    run.bases["model_bytes"] = len(first_model)
    return summarise(run, inputs, setups, trainings, serving)


def run_predict(run: Run) -> dict:
    setups, trainings, first_model = [], [], None
    for i in range(PREDICT_SETUPS):
        d = run.workdir / f"setup{i}"
        with run.phase("bench.setup", run.tracer is not None) as t:
            inputs = w.make_inputs(d, PREDICT_MODEL_DATA_SEED, 2 * run.args.seed + 1,
                                   w.PREDICT_MODEL_SIZE.figures)
            trainings.append(w.train_in_child(d / "train" / "manifest.txt", d / "cascade.model"))
            model = cascade.load_cascade(d / "cascade.model")
            cascade.save_cascade(model, d / "resaved.model")
        setups.append(t["s"])
        model_bytes = (d / "cascade.model").read_bytes()
        w.check((d / "resaved.model").read_bytes() == model_bytes, "save/load round trip changed the model bytes")
        first_model = first_model or model_bytes
        w.check(model_bytes == first_model, "set-up training is not deterministic: model bytes differ")
        run.ops["training_examples"] += 2 * len(inputs.train)
        run.ops["skipped_examples"] += trainings[-1]["skipped_examples"]
    for ex in inputs.heldout[:5]:  # warm-up
        cascade.predict(model, ex.image, ex.box0)
    serving, start, rep = [], perf_counter(), 0
    while run.keep_going(start, rep):
        traced = run.traced(rep)
        with run.phase("bench.rep", traced) as t:
            served = w.serving_rep(model, inputs, LATENCY_PER_REP)
        run.rep_walls[traced].append(t["s"])
        run.check_served([served])
        if not traced:
            serving.append(served)
        rep += 1
    run.bases["repetitions"] = rep
    run.bases["model_bytes"] = len(first_model)
    return summarise(run, inputs, setups, trainings, serving)


def summarise(run: Run, inputs, setups: list[float], trainings: list[dict], serving: list[dict]) -> dict:
    """End-to-end metrics: medians over repetitions, percentiles over all latencies."""
    w.check(bool(trainings and serving), "no untraced repetition completed")
    pdj = serving[0]["pdj"]
    w.check(all(s["pdj"] == pdj for s in serving), "held-out PDJ differs between repetitions")
    w.check(all(0.0 <= v <= 1.0 for stage in pdj for v in stage), f"PDJ out of range: {pdj}")
    w.check(all(t["stage1_loss"] == trainings[0]["stage1_loss"] for t in trainings),
            "training is not deterministic: stage-1 loss differs between repetitions")
    latencies = np.array([x for s in serving for x in s["latencies"]]) * 1e3
    p50, p90, p99 = np.percentile(latencies, [50, 90, 99])
    first = trainings[0]
    run.bases.update({
        "setups": len(setups), "setup_s": setups, "trainings": len(trainings),
        "train_samples_per_s": [t["train_samples_per_s"] for t in trainings],
        "serving_reps": len(serving), "latency_samples": len(latencies),
        "train_figures": len(inputs.train), "heldout_figures": len(inputs.heldout),
        "stage1_samples": first["stage1_samples"], "refine_samples": first["refine_samples"],
        "trained_samples": first["trained_samples"],
    })
    return {
        "setup_s": median(setups),
        "train_samples_per_s": median(t["train_samples_per_s"] for t in trainings),
        "stage1_loss": first["stage1_loss"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pdj_0.1_stage1": pdj[0][0],
        "pdj_0.1_final": pdj[-1][0],
        "pdj_0.2_final": pdj[-1][1],
        "predict_ms_p50": float(p50),
        "predict_ms_p90": float(p90),
        "predict_ms_p99": float(p99),
        "eval_images_per_s": median(len(s["many"]) / s["eval_s"] for s in serving),
    }


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics from the spans of the traced repetitions and set-ups."""
    rep = SpanTable(run.tracer.spans, "bench.rep")
    setup = SpanTable(run.tracer.spans, "bench.setup")
    w.check(rep.nested and setup.nested, "a span lies outside its parent")
    refine_samples = rep.epochs_per_root("cascade.train_refinement_stage")[1]
    if refine_samples:
        w.check(refine_samples == run.bases["refine_samples"],
                "traced refinement set size differs from the counted one")
    h, wd, c = layers.INPUT_SIZE
    m = {
        "data.synth_s": setup.per_root(setup.total_s, "data.synth_generate"),
        "data.load_examples_s": setup.per_root(setup.total_s, "data.load_examples"),
        "geometry.crop_resample.calls": rep.per_root(rep.calls, "geometry.crop_resample"),
        "geometry.crop_resample.ms": rep.per_root(rep.total_s, "geometry.crop_resample") * 1e3,
        "geometry.crop_resample.us_per_call": rep.per_call(rep.total_s, "geometry.crop_resample") * 1e6,
        "geometry.joint_box.calls": rep.per_root(rep.calls, "geometry.joint_box"),
        "geometry.pose_diameter.calls": rep.per_root(rep.calls, "geometry.pose_diameter"),
        "nn.forward.train.calls": rep.per_root(rep.calls, "nn.forward.train"),
        "nn.forward.train.ms_per_batch": rep.per_call(rep.total_s, "nn.forward.train") * 1e3,
        "nn.backward.ms_per_batch": rep.per_call(rep.total_s, "nn.backward") * 1e3,
        "nn.adagrad_step.ms": rep.per_root(rep.total_s, "nn.adagrad_step") * 1e3,
        "nn.l2_loss_batch.ms": rep.per_root(rep.total_s, "nn.l2_loss_batch") * 1e3,
        "nn.train_epochs.self_ms": rep.per_root(rep.self_s, "nn.train_epochs") * 1e3,
        "cascade.stage1_build_s": rep.build_per_root("cascade.train_stage1"),
        "cascade.refine_build_s": rep.build_per_root("cascade.train_refinement_stage"),
        "cascade.refine_samples": refine_samples,
        "cascade.refine_set_mb": refine_samples * h * wd * c * 4 / 2**20,  # stacked as float32
        "cascade.fit_stats_s": rep.per_root(rep.total_s, "cascade.fit_displacement_stats"),
        "cascade.predict.self_ms_per_image": rep.per_call(rep.self_s, "cascade.predict") * 1e3,
        "cascade.predict_many.s": rep.per_root(rep.total_s, "cascade.predict_many"),
        "cascade.truncated": rep.per_root(rep.count, "cascade.predict"),
        "cascade.save_ms": setup.per_call(setup.total_s, "cascade.save_cascade") * 1e3,
        "cascade.load_ms": setup.per_call(setup.total_s, "cascade.load_cascade") * 1e3,
        "cascade.model_bytes": run.bases["model_bytes"],
        "metrics.make_report_ms": rep.per_root(rep.total_s, "metrics.make_report") * 1e3,
        "trace.overhead_pct": 100.0 * (median(run.rep_walls[True]) / median(run.rep_walls[False]) - 1.0),
        "trace.unattributed_pct": 100.0 * rep.self_s.get("bench.rep", 0.0) / rep.wall_s,
        "trace.spans_per_rep": len(rep.keep) / len(rep.roots),
    }
    for b in ("b1", "b9", "bother"):
        name = f"nn.forward.infer.{b}"
        m[f"{name}.calls"] = rep.per_root(rep.calls, name)
        m[f"{name}.ms_per_call"] = rep.per_call(rep.total_s, name) * 1e3
    run.bases["traced_repetitions"] = len(rep.roots)
    m.update(layers.layer_metrics())
    return m


def emit(args, env, out_dir: Path, e2e: dict, layer: dict, listed: dict, run: Run, correct: bool) -> None:
    """Print every metric with its unit, the bases and environment, then the result line."""
    attempted = run.ops["training_examples"] + run.ops["predictions"]
    failed = sum(run.ops[k] for k in ("skipped_examples", "truncated", "nonfinite", "exceptions"))
    print(f"# posecascade benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, value in {**e2e, **layer}.items():
        print(f"{name:40s} {value:14.6g} {END_TO_END.get(name) or PER_LAYER[name]}")
    print(f"{'error_rate':40s} {failed / max(attempted, 1):14.6g} "
          f"({failed} failed of {attempted} attempted: {json.dumps(run.ops)})")
    print(f"# bases: {json.dumps(run.bases)}")
    print(f"# environment: {json.dumps(env)}")
    record = {"environment": env, "correct": correct, "attempted": attempted, "failed": failed,
              "ops": run.ops, "bases": run.bases, "end_to_end": e2e, "per_layer": layer}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    values = {**e2e, **layer}
    result = {k: {"value": values[k], "unit": unit} for k, unit in listed.items() if k in values}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": result}))


def main(args, root: Path, blas_threads: int) -> int:
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    env = environment(args, root, blas_threads)
    tracer = Tracer() if args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    run = Run(args, workdir, tracer)
    listed = PER_LAYER if args.trace else {k: END_TO_END[k] for k in GATED}
    warnings = w.WarningCounter()
    logging.getLogger("posecascade").addHandler(warnings)
    e2e, layer, correct = {}, {}, True
    try:
        if tracer:
            tracer.install()
        e2e = (run_train if args.workload == "train" else run_predict)(run)
        if tracer:
            tracer.uninstall()
            layer = layer_metrics(run)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        run.ops["skipped_examples"] += warnings.count
        w.check(not (run.ops["truncated"] or run.ops["nonfinite"] or run.ops["skipped_examples"]),
                f"failed operations: {run.ops}")
        missing = set(listed) - set(e2e) - set(layer)
        w.check(not missing, f"metrics not produced: {sorted(missing)}")
    except w.BenchmarkFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct = False
    except Exception:  # noqa: BLE001 -- an exception from the package is a failed operation
        traceback.print_exc()
        run.ops["exceptions"] += 1
        correct = False
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    emit(args, env, out_dir, e2e, layer, listed, run, correct)
    return 0 if correct else 1

"""The two workloads, `train` and `predict`, and the checks on their outputs.

Inputs are synthetic 64x64 stick figures from `data.synth_generate`; the
held-out set (200 figures) comes from seed 2*s+1, where s is the
benchmark's --seed. The package only ever sees the generated figures; the
stage configurations (default 60x60 stack, batch 128, init and
augmentation seeds) are fixed.

Both workloads train a 2-stage cascade and then serve the held-out set,
one serving repetition being (a) a closed loop with one client sending one
image at a time through `cascade.predict` (`posecascade predict`) and (b)
`predict_many` plus one `make_report` per stage over the whole set
(`posecascade eval`).

train: the `posecascade train` flow on figures from seed 2*s is the timed
    part. It loads the nn engine's training path (forward, backward,
    adagrad at batch 128) and the cascade's sample building;
    crops_per_joint is set so that the refinement set (5760 crops, 79 MiB
    as float32) is the largest allocation.
predict: one fixed small cascade, trained on figures of a fixed seed during
    set-up in a child process, so that the parent's peak RSS is that of
    inference; serving is the timed part. Forward runs at batch 1 and 9
    only, with no backward.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from posecascade import cascade, data, geometry, metrics, nn
from posecascade.errors import MissingTorsoError

HELDOUT_FIGURES = 200
PDJ_FRACTIONS = (0.1, 0.2)
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class TrainSize:
    figures: int
    stage1_epochs: int
    refine_epochs: int
    crops_per_joint: int


TRAIN_SIZE = TrainSize(figures=32, stage1_epochs=4, refine_epochs=1, crops_per_joint=10)
PREDICT_MODEL_SIZE = TrainSize(figures=24, stage1_epochs=4, refine_epochs=1, crops_per_joint=2)


class BenchmarkFailure(Exception):
    """An output check failed."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise BenchmarkFailure(what)


@dataclass
class Inputs:
    tree: geometry.PoseTree
    joint_names: list[str]
    train: list[data.LoadedExample]
    heldout: list[data.LoadedExample]


def make_inputs(workdir: Path, train_seed: int, heldout_seed: int, train_figures: int) -> Inputs:
    train_m = data.synth_generate(data.SynthConfig(count=train_figures, seed=train_seed), workdir / "train")
    held_m = data.synth_generate(data.SynthConfig(count=HELDOUT_FIGURES, seed=heldout_seed), workdir / "heldout")
    return Inputs(train_m.tree, train_m.joint_names, data.load_examples(train_m), data.load_examples(held_m))


class WarningCounter(logging.Handler):
    """Counts the package's warnings: each one is a skipped training example."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


# ---------------------------------------------------------------------------
# training


def _stage_config(stage: int, epochs: int, crops_per_joint: int) -> cascade.StageConfig:
    return cascade.StageConfig(
        sigma=1.0,
        crops_per_joint=crops_per_joint,
        train=nn.TrainConfig(epochs=epochs, batch_size=128, seed=stage),
        seed=stage,
    )


def train_cascade(examples, tree, size: TrainSize) -> tuple[cascade.CascadeModel, float, list[float]]:
    """Stage 1, displacement statistics, one refinement stage.

    Returns the model, the wall time from loaded examples to the trained
    cascade, and the per-epoch losses of both stages.
    """
    losses: list[float] = []
    t0 = perf_counter()
    sc1 = _stage_config(1, size.stage1_epochs, size.crops_per_joint)
    net1 = cascade.train_stage1(examples, tree, sc1, progress=lambda e, loss: losses.append(loss))
    model = cascade.CascadeModel([net1], [None], sc1.sigma, tree, sc1.input_size)
    stats = cascade.fit_displacement_stats(model, examples)
    sc2 = _stage_config(2, size.refine_epochs, size.crops_per_joint)
    cascade.train_refinement_stage(examples, model, stats, sc2, progress=lambda e, loss: losses.append(loss))
    return model, perf_counter() - t0, losses


def training_summary(examples, model, size: TrainSize, wall_s: float, losses: list[float]) -> dict:
    """Throughput and stage-1 loss of a training run, with their bases."""
    check(len(losses) == size.stage1_epochs + size.refine_epochs and all(np.isfinite(losses)),
          f"missing or non-finite training losses {losses}")
    jitter = _stage_config(1, 1, 1).stage1_jitter_crops
    stage1 = sum(2 * (1 + jitter) for ex in examples if ex.pose.mask.any())
    present = model.stats[1].present
    refine = 0
    for ex in examples:
        try:
            diam = geometry.pose_diameter(ex.pose, model.tree)
        except MissingTorsoError:
            diam = 0.0
        if diam > 0:  # the mirror has the same diameter and labeled-joint count
            refine += 2 * size.crops_per_joint * int((ex.pose.mask & present).sum())
    samples = stage1 * size.stage1_epochs + refine * size.refine_epochs
    return {
        "train_wall_s": wall_s,
        "trained_samples": samples,
        "stage1_samples": stage1,
        "refine_samples": refine,
        "train_samples_per_s": samples / wall_s,
        "stage1_loss": losses[size.stage1_epochs - 1],
    }


def train_in_child(manifest_path: Path, model_path: Path) -> dict:
    """Train the predict workload's cascade in a child process and save it.

    The child loads the training set from its manifest, as `posecascade
    train` does, and writes the model and its training summary.
    """
    package_root = Path(cascade.__file__).resolve().parent.parent
    subprocess.run(
        [sys.executable, __file__, str(manifest_path), str(model_path)],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(Path(f"{model_path}.json").read_text())


def _child_main(manifest_path: str, model_path: str) -> None:
    warnings = WarningCounter()
    logging.getLogger("posecascade").addHandler(warnings)
    manifest = data.load_manifest(manifest_path)
    examples = data.load_examples(manifest)
    model, wall_s, losses = train_cascade(examples, manifest.tree, PREDICT_MODEL_SIZE)
    cascade.save_cascade(model, model_path)
    summary = training_summary(examples, model, PREDICT_MODEL_SIZE, wall_s, losses)
    summary["skipped_examples"] = warnings.count
    Path(f"{model_path}.json").write_text(json.dumps(summary))


# ---------------------------------------------------------------------------
# serving


def serving_rep(model, inputs: Inputs, latency_count: int) -> dict:
    """(a) `latency_count` single-image predictions, one client in a closed
    loop cycling over the held-out set; (b) predict_many and one report per
    stage over the whole set.

    Returns the per-image latencies, the wall time of (b), every prediction
    made, and the mean PDJ at PDJ_FRACTIONS for every stage.
    """
    latencies, single = [], []
    for j in range(latency_count):
        ex = inputs.heldout[j % len(inputs.heldout)]
        t0 = perf_counter()
        single.append(cascade.predict(model, ex.image, ex.box0))
        latencies.append(perf_counter() - t0)
    t0 = perf_counter()
    many = cascade.predict_many(model, inputs.heldout)
    truths = [ex.pose for ex in inputs.heldout]
    pdj = []
    for s in range(model.num_stages):
        poses = [p.poses[min(s, len(p.poses) - 1)] for p in many]
        report = metrics.make_report(poses, truths, inputs.tree, inputs.joint_names, fractions=PDJ_FRACTIONS)
        pdj.append([float(v) for v in report.pdj.mean_rates()])
    return {"latencies": latencies, "eval_s": perf_counter() - t0, "single": single, "many": many, "pdj": pdj}


def check_same(single: list, many: list) -> None:
    """predict_many must equal the per-image predict loop element-wise."""
    check(
        len(single) >= len(many)
        and all(
            a.truncated == b.truncated
            and len(a.poses) == len(b.poses)
            and all(np.array_equal(p.joints, q.joints) for p, q in zip(a.poses, b.poses))
            for a, b in zip(single, many)
        ),
        "predict_many differs from a per-image predict loop",
    )


def count_bad(preds) -> tuple[int, int]:
    """(truncated, non-finite) predictions."""
    truncated = sum(p.truncated for p in preds)
    nonfinite = sum(not all(np.all(np.isfinite(q.joints)) for q in p.poses) for p in preds)
    return truncated, nonfinite


def check_round_trip(model, workdir: Path) -> bytes:
    """load_cascade(save_cascade(m)) must serialise back to identical bytes."""
    a, b = workdir / "roundtrip_a.model", workdir / "roundtrip_b.model"
    cascade.save_cascade(model, a)
    cascade.save_cascade(cascade.load_cascade(a), b)
    check(a.read_bytes() == b.read_bytes(), "save/load round trip changed the model bytes")
    return a.read_bytes()


if __name__ == "__main__":
    _child_main(*sys.argv[1:])

"""Holistic stage-1 regression plus the per-joint refinement cascade.

Stage 1 regresses the whole normalized pose from the initial box. Every later
stage re-crops a square box around each joint's previous estimate (side
sigma * torso diameter) and regresses the joint's position inside that box;
denormalizing by the same box turns the network output directly into the new
absolute joint location, so an all-zero output leaves the pose unchanged.

Refinement stages train on simulated predictions: the ground-truth joint is
displaced by a draw from a per-joint Gaussian fitted to the previous stage's
observed errors, and the crop is taken around the displaced point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import container, nn
from .data import LoadedExample, mirror_example
from .errors import InvalidArgumentError, InvalidStateError, MissingTorsoError
from .geometry import (
    BoundingBox,
    PoseTree,
    PoseVector,
    crop_resample,
    full_image_box,
    joint_box,
    pose_diameter,
)

log = logging.getLogger(__name__)

CASCADE_MAGIC = b"PCCAS\n"
CASCADE_FORMAT_VERSION = 1


def net_input(image: np.ndarray, boxes, input_size: tuple[int, int, int]) -> np.ndarray:
    """Crop image at each box, resample to the net input, adapt channels, and
    center pixel values; returns (len(boxes), h, w, c)."""
    h, w, c = input_size
    crops = crop_resample(image, boxes, (w, h))
    if crops.shape[3] != c:
        if c == 1:
            crops = crops.mean(axis=3, keepdims=True)
        elif crops.shape[3] == 1:
            crops = np.repeat(crops, c, axis=3)
        else:
            raise InvalidArgumentError(f"cannot adapt {crops.shape[3]} channels to {c}")
    return crops - 0.5


def default_layers(dropout_keep: float, output_dim: int, use_lrn: bool = False) -> list[nn.LayerSpec]:
    """Desk-scale stack: two conv/pool blocks then two fully connected layers."""
    layers: list[nn.LayerSpec] = [nn.Conv(filters=8, size=5), nn.ReLU()]
    if use_lrn:
        layers.append(nn.LRN())
    layers += [nn.MaxPool(2), nn.Conv(filters=16, size=3), nn.ReLU()]
    if use_lrn:
        layers.append(nn.LRN())
    layers += [
        nn.MaxPool(2),
        nn.FullyConnected(128),
        nn.ReLU(),
        nn.Dropout(dropout_keep),
        nn.FullyConnected(output_dim),
    ]
    return layers


@dataclass
class StageConfig:
    sigma: float
    crops_per_joint: int = 40  # refinement samples per (example, joint)
    stage1_jitter_crops: int = 4  # extra translated copies per stage-1 example
    input_size: tuple[int, int, int] = (60, 60, 1)
    layers: list[nn.LayerSpec] | None = None  # None: default_layers
    use_lrn: bool = False  # only consulted when layers is None
    train: nn.TrainConfig = field(default_factory=lambda: nn.TrainConfig(epochs=10))
    seed: int = 0  # weight init and augmentation draws
    jitter_frac: float = 0.05  # stage-1 translation, fraction of box size

    def __post_init__(self):
        if self.sigma <= 0:
            raise InvalidArgumentError(f"sigma must be positive, got {self.sigma}")
        if self.crops_per_joint < 1:
            raise InvalidArgumentError("crops_per_joint must be >= 1")

    def build_network(self, output_dim: int) -> nn.Network:
        """A float32 net; its weights are the float64 draws of the seed, cast."""
        layers = self.layers
        if layers is None:
            layers = default_layers(self.train.dropout_keep, output_dim, self.use_lrn)
        return nn.init_network(layers, self.input_size, output_dim, self.seed, dtype=np.float32)


@dataclass
class DisplacementStats:
    """Per-joint Gaussian of previous-stage prediction errors (pred - truth)."""

    mean: np.ndarray  # (k, 2)
    var: np.ndarray  # (k, 2), per axis, unbiased
    present: np.ndarray  # (k,) bool; False disables sampling for that joint
    count: np.ndarray  # (k,) examples the joint was fitted on

    def __post_init__(self):
        if np.any(self.var[self.present] < 0):
            raise InvalidArgumentError("variances must be non-negative")


@dataclass
class CascadePrediction:
    poses: list[PoseVector]  # one per completed stage
    truncated: bool = False  # a zero diameter or non-finite output stopped the cascade

    @property
    def final(self) -> PoseVector:
        return self.poses[-1]


@dataclass
class CascadeModel:
    stages: list[nn.Network]
    stats: list[DisplacementStats | None]  # aligned with stages; stats[0] is None
    sigma: float
    tree: PoseTree
    input_size: tuple[int, int, int]

    def __post_init__(self):
        if len(self.stages) < 1:
            raise InvalidArgumentError("a cascade needs at least one stage")
        if len(self.stats) != len(self.stages):
            raise InvalidArgumentError("stats must align with stages")
        for s, st in enumerate(self.stats):
            if s >= 1 and st is None:
                raise InvalidArgumentError(f"refinement stage {s + 1} is missing its stats")

    @property
    def num_stages(self) -> int:
        return len(self.stages)


# ---------------------------------------------------------------------------
# stages: every stage trains on views and decodes its output by the same box
# normalization


class TrainingView(NamedTuple):
    """One training sample before cropping: the net sees `image` cropped at
    `box` and regresses, on the joints in `mask`, the joint offsets from the
    box center scaled by the box size."""

    image: np.ndarray
    box: BoundingBox
    offset: np.ndarray  # (k, 2) truth - box center, in pixels
    mask: np.ndarray  # (k,) bool

    def target(self) -> np.ndarray:
        t = self.offset / np.array([self.box.width, self.box.height])
        return np.where(self.mask[:, None], t, 0.0).reshape(-1)


def _train_stage(views, k: int, config: StageConfig, progress, empty_message: str) -> nn.Network:
    views = list(views)
    if not views:
        raise InvalidStateError(empty_message)
    inputs = np.empty((len(views), *config.input_size), dtype=np.float32)
    lo = 0
    while lo < len(views):
        # one crop call per run of consecutive views on one image, capped at
        # a mini-batch so its float64 temporaries stay small
        image, hi = views[lo].image, lo + 1
        while hi < len(views) and hi - lo < config.train.batch_size and views[hi].image is image:
            hi += 1
        inputs[lo:hi] = net_input(image, [v.box for v in views[lo:hi]], config.input_size)
        lo = hi
    net = config.build_network(2 * k)
    nn.train_epochs(
        net,
        inputs,
        np.stack([v.target() for v in views]),
        np.stack([v.mask for v in views]),
        config.train,
        progress=progress,
    )
    return net


def _with_mirror(ex: LoadedExample, tree: PoseTree):
    """(pose, image, initial box) of the example and of its left/right mirror."""
    b0 = ex.box0 if ex.box0 is not None else full_image_box(ex.image.shape[1], ex.image.shape[0])
    return [(ex.pose, ex.image, b0), mirror_example(ex.pose, ex.image, tree, b0)]


def stage1_views(examples, tree: PoseTree, config: StageConfig, rng: np.random.Generator):
    """Each example and its mirror at the initial box and at
    `stage1_jitter_crops` copies translated by up to `jitter_frac` of its size."""
    for ex in examples:
        if not ex.pose.mask.any():
            log.warning("skipping %s: no labeled joints", ex.image_path)
            continue
        for pose, img, box in _with_mirror(ex, tree):
            boxes = [box]
            for _ in range(config.stage1_jitter_crops):
                shift = rng.uniform(-config.jitter_frac, config.jitter_frac, size=2)
                boxes.append(box.shifted(shift * np.array([box.width, box.height])))
            for b in boxes:
                yield TrainingView(img, b, pose.joints - b.center, pose.mask)


def refinement_views(
    examples, tree: PoseTree, stats: DisplacementStats, config: StageConfig, rng: np.random.Generator
):
    """Simulated predictions: for each example and its mirror, each labeled
    joint i with statistics and each of `crops_per_joint` draws, the square box
    (side sigma * diameter) at truth + delta, where delta is drawn from joint
    i's displacement Gaussian; only joint i is unmasked."""
    k = tree.k
    for ex in examples:
        for pose, img, _ in _with_mirror(ex, tree):
            try:
                diam = pose_diameter(pose, tree)
            except MissingTorsoError:
                diam = 0.0
            if diam <= 0:
                log.warning("skipping %s: degenerate pose diameter", ex.image_path)
                continue
            side = config.sigma * diam
            for i in range(k):
                if not (pose.mask[i] and stats.present[i]):
                    continue
                for _ in range(config.crops_per_joint):
                    delta = sample_displacement(stats, i, rng)
                    offset = np.zeros((k, 2))
                    offset[i] = -delta
                    yield TrainingView(img, BoundingBox(pose.joints[i] + delta, side, side),
                                       offset, np.arange(k) == i)


def train_stage1(
    examples: list[LoadedExample],
    tree: PoseTree,
    config: StageConfig,
    progress=None,
) -> nn.Network:
    """Train the holistic first-stage regressor on stage1_views.

    Examples without any labeled joint are skipped with a warning.
    """
    views = stage1_views(examples, tree, config, np.random.default_rng(config.seed))
    return _train_stage(views, tree.k, config, progress, "no usable training examples")


def train_refinement_stage(
    examples: list[LoadedExample],
    model: CascadeModel,
    stats: DisplacementStats,
    config: StageConfig,
    progress=None,
) -> nn.Network:
    """Train stage s >= 2 on refinement_views and append it to the model.

    config must carry the model's sigma and input_size, the box side and
    crop size predict serves the stage with.
    """
    if config.sigma != model.sigma or tuple(config.input_size) != tuple(model.input_size):
        raise InvalidArgumentError(
            f"stage config (sigma {config.sigma}, input {tuple(config.input_size)}) does not "
            f"match the model (sigma {model.sigma}, input {tuple(model.input_size)})"
        )
    views = refinement_views(examples, model.tree, stats, config, np.random.default_rng(config.seed))
    net = _train_stage(views, model.tree.k, config, progress, "refinement training set is empty")
    model.stages.append(net)
    model.stats.append(stats)
    return net


def fit_displacement_stats(model: CascadeModel, examples: list[LoadedExample]) -> DisplacementStats:
    """Mean/variance per joint of (cascade prediction - truth) over the dataset.

    Runs the model's current stages on every example through predict_many.
    Joints never labeled (or only seen on truncated predictions) come back
    flagged absent.
    """
    k = model.tree.k
    disps: list[list[np.ndarray]] = [[] for _ in range(k)]
    preds = predict_many(model, examples)
    for ex, pred in zip(examples, preds):
        if pred.truncated:
            continue
        last = pred.final
        for i in range(k):
            if ex.pose.mask[i]:
                disps[i].append(last.joints[i] - ex.pose.joints[i])
    mean = np.zeros((k, 2))
    var = np.zeros((k, 2))
    present = np.zeros(k, dtype=bool)
    count = np.zeros(k, dtype=int)
    for i in range(k):
        count[i] = len(disps[i])
        if count[i] == 0:
            continue
        present[i] = True
        d = np.stack(disps[i])
        mean[i] = d.mean(axis=0)
        if count[i] > 1:
            var[i] = d.var(axis=0, ddof=1)
    return DisplacementStats(mean, var, present, count)


def sample_displacement(stats: DisplacementStats, i: int, rng: np.random.Generator) -> np.ndarray:
    """One draw from joint i's axis-aligned displacement Gaussian."""
    if not stats.present[i]:
        raise InvalidArgumentError(f"joint {i} has no displacement statistics")
    return rng.normal(stats.mean[i], np.sqrt(stats.var[i]))


# ---------------------------------------------------------------------------
# inference


def predict(model: CascadeModel, image: np.ndarray, b0: BoundingBox | None = None) -> CascadePrediction:
    """Run every stage; returns all intermediate poses for diagnostics.

    Stage 1 reads every joint from the one initial box; a later stage reads
    joint i from row i of its output on the box around joint i's previous
    estimate. Either way the output v decodes as v * box size + box center,
    so a zero output at stage s >= 2 reproduces the previous pose exactly.
    If an intermediate pose has zero diameter, or a refinement stage outputs
    a non-finite value, the cascade stops at the previous pose and the result
    is flagged truncated. A non-finite stage-1 output raises
    InvalidArgumentError, since there is no earlier pose to keep.
    """
    k = model.tree.k
    if b0 is None:
        b0 = full_image_box(image.shape[1], image.shape[0])
    boxes, rows = [b0], np.zeros(k, dtype=int)
    poses: list[PoseVector] = []
    for s, net in enumerate(model.stages):
        if s > 0:
            if pose_diameter(poses[-1], model.tree) <= 0:
                return CascadePrediction(poses, truncated=True)
            boxes = [joint_box(poses[-1], i, model.sigma, model.tree) for i in range(k)]
            rows = np.arange(k)
        crops = net_input(image, boxes, model.input_size)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            outs, _ = nn.forward(net, crops)
        v = outs.reshape(len(boxes), k, 2)[rows, np.arange(k)]
        size = np.array([[b.width, b.height] for b in boxes])[rows]
        center = np.array([b.center for b in boxes])[rows]
        joints = v * size + center
        if not np.isfinite(joints).all():
            if s == 0:
                raise InvalidArgumentError("stage 1 produced a non-finite output")
            return CascadePrediction(poses, truncated=True)
        poses.append(PoseVector(joints, np.ones(k, dtype=bool)))
    return CascadePrediction(poses)


def predict_many(model: CascadeModel, examples) -> list[CascadePrediction]:
    """predict() on each example's image and initial box, serially, in order."""
    return [predict(model, ex.image, ex.box0) for ex in examples]


# ---------------------------------------------------------------------------
# serialization: container header, then each stage as a length-prefixed
# network file


def cascade_to_bytes(model: CascadeModel) -> bytes:
    header = {
        "format_version": CASCADE_FORMAT_VERSION,
        "sigma": model.sigma,
        "input_size": list(model.input_size),
        "tree": {
            "k": model.tree.k,
            "limbs": [list(p) for p in model.tree.limbs],
            "torso_pairs": [list(p) for p in model.tree.torso_pairs],
            "left_right_swap": [list(p) for p in model.tree.left_right_swap],
        },
        "num_stages": model.num_stages,
        "stats": [
            None
            if st is None
            else {
                "mean": st.mean.tolist(),
                "var": st.var.tolist(),
                "present": st.present.tolist(),
                "count": st.count.tolist(),
            }
            for st in model.stats
        ],
    }
    blobs = [container.pack_header(CASCADE_MAGIC, header)]
    blobs += [container.pack_blob(nn.network_to_bytes(net)) for net in model.stages]
    return b"".join(blobs)


def _stats_from_header(st: dict | None, k: int) -> DisplacementStats | None:
    if st is None:
        return None
    arrays = (
        np.array(st["mean"], dtype=float),
        np.array(st["var"], dtype=float),
        np.array(st["present"], dtype=bool),
        np.array(st["count"], dtype=int),
    )
    if [a.shape for a in arrays] != [(k, 2), (k, 2), (k,), (k,)]:
        raise InvalidArgumentError(f"cascade header: displacement stats do not have k={k} joints")
    return DisplacementStats(*arrays)


def cascade_from_bytes(data: bytes) -> CascadeModel:
    """Parse a cascade file; any malformed input raises InvalidArgumentError."""
    r = container.Reader(data, CASCADE_MAGIC, "cascade model file")
    header = r.header()
    try:
        if header["format_version"] != CASCADE_FORMAT_VERSION:
            raise InvalidArgumentError(f"unsupported format version {header['format_version']!r}")
        t = header["tree"]
        tree = PoseTree(
            int(t["k"]),
            [tuple(p) for p in t["limbs"]],
            [tuple(p) for p in t["torso_pairs"]],
            [tuple(p) for p in t["left_right_swap"]],
        )
        stats = [_stats_from_header(st, tree.k) for st in header["stats"]]
        sigma = header["sigma"]
        input_size = tuple(int(v) for v in header["input_size"])
        num_stages = int(header["num_stages"])
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
        raise InvalidArgumentError(f"malformed cascade header: {e!r}") from None
    if not (isinstance(sigma, (int, float)) and np.isfinite(sigma) and sigma > 0):
        raise InvalidArgumentError(f"cascade header: sigma must be positive, got {sigma}")
    stages = []
    for s in range(num_stages):
        try:
            stages.append(nn.network_from_bytes(r.blob()))
        except InvalidArgumentError as e:
            raise InvalidArgumentError(f"stage {s + 1}: {e}") from None
    r.finish()
    for s, net in enumerate(stages):
        if net.input_size != input_size or net.output_dim != 2 * tree.k:
            raise InvalidArgumentError(
                f"stage {s + 1} maps {net.input_size} to {net.output_dim} values, "
                f"the cascade needs {input_size} to {2 * tree.k}"
            )
    return CascadeModel(stages, stats, sigma, tree, input_size)


def save_cascade(model: CascadeModel, path) -> None:
    with open(path, "wb") as f:
        f.write(cascade_to_bytes(model))


def load_cascade(path) -> CascadeModel:
    with open(path, "rb") as f:
        return cascade_from_bytes(f.read())

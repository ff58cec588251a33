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

import numpy as np

from . import container, nn
from .data import LoadedExample, mirror_example
from .errors import (
    DegenerateBoxError,
    InvalidArgumentError,
    InvalidStateError,
    MissingTorsoError,
)
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


def net_input(image: np.ndarray, box: BoundingBox, input_size: tuple[int, int, int]) -> np.ndarray:
    """Crop, resample to the net input, adapt channels, and center pixel values."""
    h, w, c = input_size
    crop = crop_resample(image, box, (w, h))
    if crop.shape[2] != c:
        if c == 1:
            crop = crop.mean(axis=2, keepdims=True)
        elif crop.shape[2] == 1:
            crop = np.repeat(crop, c, axis=2)
        else:
            raise InvalidArgumentError(f"cannot adapt {crop.shape[2]} channels to {c}")
    return crop - 0.5


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
    truncated: bool = False  # a degenerate intermediate diameter stopped the cascade

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

    def add_refinement_stage(self, net: nn.Network, stats: DisplacementStats) -> None:
        self.stages.append(net)
        self.stats.append(stats)


# ---------------------------------------------------------------------------
# stage 1


def _example_box(ex: LoadedExample) -> BoundingBox:
    if ex.box0 is not None:
        return ex.box0
    h, w = ex.image.shape[:2]
    return full_image_box(w, h)


def build_stage1_samples(examples, tree, config, rng):
    inputs, targets, masks = [], [], []
    scale = np.zeros(2)
    for ex in examples:
        if not ex.pose.mask.any():
            log.warning("skipping %s: no labeled joints", ex.image_path)
            continue
        b0 = _example_box(ex)
        variants = [(ex.pose, ex.image, b0)]
        variants.append(mirror_example(ex.pose, ex.image, tree, b0))
        for pose, img, box in variants:
            boxes = [box]
            for _ in range(config.stage1_jitter_crops):
                shift = rng.uniform(-config.jitter_frac, config.jitter_frac, size=2)
                boxes.append(box.shifted(shift * np.array([box.width, box.height])))
            for b in boxes:
                inputs.append(net_input(img, b, config.input_size).astype(np.float32))
                scale[:] = (b.width, b.height)
                t = np.where(pose.mask[:, None], (pose.joints - b.center) / scale, 0.0)
                targets.append(t.reshape(-1))
                masks.append(pose.mask)
    return inputs, targets, masks


def train_stage1(
    examples: list[LoadedExample],
    tree: PoseTree,
    config: StageConfig,
    progress=None,
) -> nn.Network:
    """Train the holistic first-stage regressor on normalized full-box crops.

    The set is augmented with left/right mirrors and randomly translated
    copies of each initial box. Examples without any labeled joint are
    skipped with a warning.
    """
    rng = np.random.default_rng(config.seed)
    inputs, targets, masks = build_stage1_samples(examples, tree, config, rng)
    if not inputs:
        raise InvalidStateError("no usable training examples")
    net = config.build_network(2 * tree.k)
    nn.train_epochs(
        net,
        np.stack(inputs),
        np.stack(targets),
        np.stack(masks),
        config.train,
        progress=progress,
    )
    return net


def predict_stage1(model: CascadeModel, image: np.ndarray, b0: BoundingBox | None = None) -> PoseVector:
    """Run only the holistic stage: denormalize the net output by the initial box."""
    if b0 is None:
        b0 = full_image_box(image.shape[1], image.shape[0])
    out, _ = nn.forward(model.stages[0], net_input(image, b0, model.input_size))
    joints = out.reshape(-1, 2) * np.array([b0.width, b0.height]) + b0.center
    return PoseVector(joints, np.ones(model.tree.k, dtype=bool))


# ---------------------------------------------------------------------------
# displacement statistics and simulated predictions


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


def sample_augmented_pair(
    example: LoadedExample,
    i: int,
    stats: DisplacementStats,
    sigma: float,
    tree: PoseTree,
    rng: np.random.Generator,
    input_size: tuple[int, int, int],
):
    """One refinement training sample for joint i.

    Draws a displacement delta, crops the square box centered on truth+delta
    (side sigma * diameter), and returns (crop, target, box) where the target
    is the truth normalized by that box, i.e. -delta scaled by the box size.
    """
    if not example.pose.mask[i]:
        raise InvalidArgumentError(f"joint {i} is not labeled")
    diam = pose_diameter(example.pose, tree)
    if diam <= 0:
        raise DegenerateBoxError("pose diameter is zero")
    delta = sample_displacement(stats, i, rng)
    side = sigma * diam
    box = BoundingBox(example.pose.joints[i] + delta, side, side)
    crop = net_input(example.image, box, input_size)
    target = -delta / side
    return crop, target, box


# ---------------------------------------------------------------------------
# refinement stages


def build_refinement_samples(examples, model, stats, config, rng):
    k = model.tree.k
    inputs, targets, masks = [], [], []
    for ex in examples:
        variants = [ex]
        mpose, mimg, mbox = mirror_example(ex.pose, ex.image, model.tree, ex.box0)
        variants.append(LoadedExample(mimg, mpose, mbox, ex.image_path))
        for v in variants:
            try:
                diam = pose_diameter(v.pose, model.tree)
            except MissingTorsoError:
                diam = 0.0
            if diam <= 0:
                log.warning("skipping %s: degenerate pose diameter", ex.image_path)
                continue
            for i in range(k):
                if not (v.pose.mask[i] and stats.present[i]):
                    continue
                for _ in range(config.crops_per_joint):
                    crop, target, _ = sample_augmented_pair(
                        v, i, stats, config.sigma, model.tree, rng, config.input_size
                    )
                    inputs.append(crop.astype(np.float32))
                    t = np.zeros(2 * k)
                    t[2 * i : 2 * i + 2] = target
                    targets.append(t)
                    m = np.zeros(k, dtype=bool)
                    m[i] = True
                    masks.append(m)
    return inputs, targets, masks


def train_refinement_stage(
    examples: list[LoadedExample],
    model: CascadeModel,
    stats: DisplacementStats,
    config: StageConfig,
    progress=None,
) -> nn.Network:
    """Train stage s >= 2 on the simulated-prediction set and append it.

    Builds crops_per_joint samples per (example, labeled joint), doubled by
    mirroring; each sample unmasks only its own joint's two coordinates.
    """
    rng = np.random.default_rng(config.seed)
    inputs, targets, masks = build_refinement_samples(examples, model, stats, config, rng)
    if not inputs:
        raise InvalidStateError("refinement training set is empty")
    net = config.build_network(2 * model.tree.k)
    nn.train_epochs(
        net,
        np.stack(inputs),
        np.stack(targets),
        np.stack(masks),
        config.train,
        progress=progress,
    )
    model.add_refinement_stage(net, stats)
    return net


# ---------------------------------------------------------------------------
# inference


def predict(model: CascadeModel, image: np.ndarray, b0: BoundingBox | None = None) -> CascadePrediction:
    """Run every stage; returns all intermediate poses for diagnostics.

    A zero network output at stage s >= 2 reproduces the previous pose
    exactly, because each joint's box is centered on its previous estimate.
    If an intermediate pose has zero diameter the cascade stops early and the
    result is flagged truncated.
    """
    k = model.tree.k
    poses = [predict_stage1(model, image, b0)]
    for s in range(1, model.num_stages):
        prev = poses[-1]
        diam = pose_diameter(prev, model.tree)
        if diam <= 0:
            return CascadePrediction(poses, truncated=True)
        boxes = [joint_box(prev, i, model.sigma, model.tree) for i in range(k)]
        crops = np.stack([net_input(image, b, model.input_size) for b in boxes])
        outs, _ = nn.forward(model.stages[s], crops)
        joints = np.zeros((k, 2))
        for i, b in enumerate(boxes):
            v = outs[i, 2 * i : 2 * i + 2]
            joints[i] = v * np.array([b.width, b.height]) + b.center
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

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
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import container, nn, workers
from .data import LoadedExample, mirror_example
from .errors import InvalidArgumentError, file_access
# crop_resample and pose_diameter are unused here; the benchmark tracer
# (perfbench/spans.py) patches them by name
from .geometry import (ImageStore, PoseTree, PoseVector, crop_resample, full_image_box, joint_box,
                       pose_diameter)

log = logging.getLogger(__name__)

CASCADE_MAGIC = b"PCCAS\n"
CASCADE_FORMAT_VERSION = 2
JITTER_FRAC = 0.05  # stage-1 translation, fraction of box size
REFINE_NEEDS_TORSO = "refinement stages need a torso pair, whose diameter sizes their crops"
REFINE_EMPTY = "refinement training set is empty"
PREDICT_FORK_MIN = 10  # predict_many forks a worker from this many examples on


def _check_sigma(sigma) -> None:
    """Raise InvalidArgumentError unless sigma, the refinement box side in
    torso diameters, is a finite real number > 0."""
    try:
        ok = isinstance(sigma, numbers.Real) and not isinstance(sigma, bool) \
            and 0 < float(sigma) < math.inf  # False for NaN
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise InvalidArgumentError(f"sigma must be a finite number > 0, got {sigma!r}")


def _check_input_size(size) -> None:
    """Raise InvalidArgumentError unless size, a stage's net input, is three
    sides (h, w, c), each at least 1."""
    if len(size) != 3:
        raise InvalidArgumentError(f"input_size must be (h, w, c), got {tuple(size)}")
    if min(size) < 1:
        raise InvalidArgumentError(f"input size must be >= 1 in every dimension, got {tuple(size)}")


def net_input(store: ImageStore, which: np.ndarray, boxes: np.ndarray,
              input_size: tuple[int, int, int]) -> np.ndarray:
    """The net inputs of image which[i] of the store cropped at row i of the
    (n, 4) box array: each crop resampled to the (h, w, c) input_size, its
    channels adapted and its pixel values centered; returns (n, h, w, c)
    float32.

    A gray net takes a color image's crop as the mean of its channels and a
    gray image's crop as it is; a net of c channels takes a gray crop's one
    channel c times. The float64 crop - 0.5 is rounded to float32 in one
    pass.
    """
    h, w, c = input_size
    crops = store.crop(which, boxes, (w, h))
    if c == 1 < store.channels:
        mean = crops.mean(axis=3, keepdims=True)
        gray = store.gray[which]
        mean[gray] = crops[gray, ..., :1]
        crops = mean
    elif store.channels not in (1, c):
        raise InvalidArgumentError(f"cannot adapt {store.channels} channels to {c}")
    # a gray crop broadcasts to the c channels of out
    return np.subtract(crops, 0.5, out=np.empty((len(crops), h, w, c), np.float32), casting="unsafe")


class StoreInputs:
    """A stage's training inputs, cropped when rows are asked for.

    Row i is net_input of image which[i] of the store at row i of the (m, 4)
    box array. len() is m, and indexing by an int array crops those rows, so
    nn.train_epochs takes it as it takes an array of every crop, without
    one being made.
    """

    def __init__(self, store: ImageStore, which: np.ndarray, boxes: np.ndarray,
                 input_size: tuple[int, int, int]):
        self.store, self.which, self.boxes, self.input_size = store, which, boxes, tuple(input_size)
        self[np.arange(0)]  # raises now on channels the net cannot take

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, rows) -> np.ndarray:
        return net_input(self.store, self.which[rows], self.boxes[rows], self.input_size)


def default_hidden(dropout_keep: float = 0.6, use_lrn: bool = False) -> list[nn.LayerSpec]:
    """Desk-scale stack below the output: two conv/pool blocks then a fully
    connected layer with dropout."""
    lrn: list[nn.LayerSpec] = [nn.LRN()] if use_lrn else []
    return [nn.Conv(filters=8, size=5), nn.ReLU(), *lrn, nn.MaxPool(2),
            nn.Conv(filters=16, size=3), nn.ReLU(), *lrn, nn.MaxPool(2),
            nn.FullyConnected(128), nn.ReLU(), nn.Dropout(dropout_keep)]


def default_layers(dropout_keep: float, output_dim: int, use_lrn: bool = False) -> list[nn.LayerSpec]:
    """The default hidden stack under an output_dim-unit output layer."""
    return default_hidden(dropout_keep, use_lrn) + [nn.FullyConnected(output_dim)]


@dataclass
class StageConfig:
    sigma: float
    crops_per_joint: int = 40  # refinement samples per (example, joint)
    stage1_jitter_crops: int = 4  # extra translated copies per stage-1 example
    input_size: tuple[int, int, int] = (60, 60, 1)
    hidden: list[nn.LayerSpec] = field(default_factory=default_hidden)  # below the 2k output
    train: nn.TrainConfig = field(default_factory=lambda: nn.TrainConfig(epochs=10))
    seed: int = 0  # weight init and augmentation draws

    def __post_init__(self):
        _check_sigma(self.sigma)
        if self.crops_per_joint < 1:
            raise InvalidArgumentError("crops_per_joint must be >= 1")
        if self.stage1_jitter_crops < 0:
            raise InvalidArgumentError("stage1_jitter_crops must be >= 0")
        _check_input_size(self.input_size)
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        # raises naming the first layer that does not fit the input
        nn.chain_shapes(self.hidden, self.input_size)

    def build_network(self, output_dim: int) -> nn.Network:
        """A float32 net of the hidden stack under an output_dim-unit layer;
        its weights are the float64 draws of the seed, cast."""
        return nn.init_network([*self.hidden, nn.FullyConnected(output_dim)], self.input_size,
                               output_dim, self.seed, dtype=np.float32)


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
        _check_sigma(self.sigma)
        self.sigma = float(self.sigma)  # a numpy scalar would not serialize
        _check_input_size(self.input_size)
        if len(self.stages) < 1:
            raise InvalidArgumentError("a cascade needs at least one stage")
        if len(self.stats) != len(self.stages):
            raise InvalidArgumentError("stats must align with stages")
        for s, st in enumerate(self.stats):
            if s >= 1 and st is None:
                raise InvalidArgumentError(f"refinement stage {s + 1} is missing its stats")
        if len(self.stages) > 1 and not self.tree.torso_pairs:
            raise InvalidArgumentError(REFINE_NEEDS_TORSO)

    @property
    def num_stages(self) -> int:
        return len(self.stages)


# ---------------------------------------------------------------------------
# stages: every stage trains on views and decodes its output by the same box
# normalization


class ImageViews(NamedTuple):
    """The training views of one image, pixels / scale as in a LoadedExample:
    the net sees the image cropped at each row of `boxes` and regresses, on
    the joints in that row of `masks`, that row of `offsets` scaled by the
    box size."""

    pixels: np.ndarray
    scale: int | float
    boxes: np.ndarray  # (m, 4) rows of cx, cy, w, h
    offsets: np.ndarray  # (m, k, 2) truth - box center, in pixels
    masks: np.ndarray  # (m, k) bool


def view_targets(boxes: np.ndarray, offsets: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The (m, 2k) regression targets: offsets over box sizes, 0 off the mask."""
    return np.where(masks[..., None], offsets / boxes[:, None, 2:], 0.0).reshape(len(boxes), -1)


def _train_stage(records, k: int, config: StageConfig, progress, empty_message: str) -> nn.Network:
    records = [r for r in records if len(r.boxes)]
    if not records:
        raise InvalidArgumentError(empty_message)
    boxes, offsets, masks = (np.concatenate(parts) for parts in list(zip(*records))[2:])
    which = np.repeat(np.arange(len(records)), [len(r.boxes) for r in records])
    store = ImageStore([r.pixels for r in records], [r.scale for r in records])
    inputs = StoreInputs(store, which, boxes, config.input_size)
    targets = view_targets(boxes, offsets, masks)
    del records, offsets  # the store holds the images
    net = config.build_network(2 * k)
    nn.train_epochs(net, inputs, targets, masks, config.train, progress=progress)
    return net


def _with_mirror(ex: LoadedExample, tree: PoseTree):
    """(pose, pixels, initial box) of the example and of its left/right
    mirror, whose pixels are a view of the example's."""
    b0 = ex.box0 if ex.box0 is not None else full_image_box(ex.pixels.shape[1], ex.pixels.shape[0])
    return [(ex.pose, ex.pixels, b0), mirror_example(ex.pose, ex.pixels, tree, b0)]


def stage1_views(examples, tree: PoseTree, config: StageConfig, rng: np.random.Generator):
    """One ImageViews record per example and per mirror: the initial box, then
    `stage1_jitter_crops` copies translated by up to JITTER_FRAC of its size."""
    for ex in examples:
        if not ex.pose.mask.any():
            log.warning("skipping %s: no labeled joints", ex.image_path)
            continue
        for pose, pixels, box in _with_mirror(ex, tree):
            size = box[2:]
            shifts = rng.uniform(-JITTER_FRAC, JITTER_FRAC, size=(config.stage1_jitter_crops, 2))
            centers = np.vstack([box[:2], box[:2] + shifts * size])
            boxes = np.hstack([centers, np.broadcast_to(size, centers.shape)])
            yield ImageViews(pixels, ex.scale, boxes, pose.joints - centers[:, None],
                             np.tile(pose.mask, (len(centers), 1)))


def _has_joint_box(pose: PoseVector, sigma: float, tree: PoseTree) -> bool:
    """Whether refinement_views can take a view of pose: whether joint_box at
    sigma succeeds. It needs a labeled torso pair, so the pose then has a
    labeled joint too."""
    try:
        joint_box(pose, sigma, tree)
    except InvalidArgumentError:
        return False
    return True


def refinement_views(
    examples, tree: PoseTree, stats: DisplacementStats, config: StageConfig, rng: np.random.Generator
):
    """Simulated predictions, one ImageViews record per example and per mirror
    that joint_box accepts (others are skipped with a warning): for each labeled
    joint i with statistics and each of `crops_per_joint` draws, its joint_box
    row at truth + delta, delta drawn from its displacement Gaussian; only joint i is unmasked."""
    k = tree.k
    for ex in examples:
        for pose, pixels, _ in _with_mirror(ex, tree):
            try:
                rows = joint_box(pose, config.sigma, tree)
            except InvalidArgumentError:
                log.warning("skipping %s: degenerate joint box", ex.image_path)
                continue
            joints = np.repeat(np.flatnonzero(pose.mask & stats.present), config.crops_per_joint)
            delta = sample_displacement(stats, joints, rng)
            boxes = rows[joints]
            boxes[:, :2] += delta
            offsets = np.zeros((len(joints), k, 2))
            offsets[np.arange(len(joints)), joints] = -delta
            yield ImageViews(pixels, ex.scale, boxes, offsets, joints[:, None] == np.arange(k))


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


def _check_matches_model(config: StageConfig, model) -> None:
    """Raise unless config has the sigma and input size of model, a CascadeModel or its stage-1 config."""
    got, want = (config.sigma, tuple(config.input_size)), (model.sigma, tuple(model.input_size))
    if got != want:
        raise InvalidArgumentError(f"stage config (sigma {got[0]}, input {got[1]}) does not match "
                                   f"the model (sigma {want[0]}, input {want[1]})")


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
    _check_matches_model(config, model)
    views = refinement_views(examples, model.tree, stats, config, np.random.default_rng(config.seed))
    net = _train_stage(views, model.tree.k, config, progress, REFINE_EMPTY)
    model.stages.append(net)
    model.stats.append(stats)
    return net


def train_cascade(examples: list[LoadedExample], tree: PoseTree, stage_configs: list[StageConfig],
                  progress=None):
    """Train a cascade of one stage per config, yielding the model after each.

    Stage 1 is train_stage1 on the first config, whose sigma and input size the
    model keeps. Each later stage fits the displacement stats of the stages so
    far and trains on them with train_refinement_stage. Every yield is the same
    CascadeModel object, one stage longer: a caller that keeps a stage's model
    must write or copy it before asking for the next. progress(stage, epoch,
    loss) gets the 1-based stage number. Before any stage trains, raises
    InvalidArgumentError on no config, on a later config whose sigma or input
    size is not the first's, and, given a later config, on a tree without a
    torso pair or on examples whose true poses give no refinement view (no
    labeled joint whose joint_box at the model's sigma is accepted).
    """
    if not stage_configs:
        raise InvalidArgumentError("a cascade needs at least one stage config")
    first, *later = stage_configs
    for config in later:
        _check_matches_model(config, first)
    if later:
        if not tree.torso_pairs:
            raise InvalidArgumentError(REFINE_NEEDS_TORSO)
        if not any(_has_joint_box(pose, first.sigma, tree)
                   for ex in examples for pose, _, _ in _with_mirror(ex, tree)):
            raise InvalidArgumentError(REFINE_EMPTY)

    def stage_progress(stage):
        return None if progress is None else lambda epoch, loss: progress(stage, epoch, loss)

    net = train_stage1(examples, tree, first, stage_progress(1))
    model = CascadeModel([net], [None], first.sigma, tree, first.input_size)
    yield model
    for stage, config in enumerate(later, start=2):
        stats = fit_displacement_stats(model, examples)
        train_refinement_stage(examples, model, stats, config, stage_progress(stage))
        yield model


def fit_displacement_stats(model: CascadeModel, examples: list[LoadedExample]) -> DisplacementStats:
    """Mean/variance per joint of (cascade prediction - truth) over the dataset.

    Runs the model's current stages on every example through predict_many.
    Joints never labeled (or only seen on truncated predictions) come back
    flagged absent.
    """
    k = model.tree.k
    kept = [(pred.final, ex.pose) for ex, pred in zip(examples, predict_many(model, examples))
            if not pred.truncated]
    disp = np.array([p.joints - t.joints for p, t in kept]).reshape(-1, k, 2)
    labeled = np.array([t.mask for _, t in kept], dtype=bool).reshape(-1, k)
    count = labeled.sum(axis=0)
    mean = np.zeros((k, 2))
    var = np.zeros((k, 2))
    for i in np.flatnonzero(count):
        d = disp[labeled[:, i], i]
        mean[i] = d.mean(axis=0)
        if count[i] > 1:
            var[i] = d.var(axis=0, ddof=1)
    return DisplacementStats(mean, var, count > 0, count)


def sample_displacement(stats: DisplacementStats, joints: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from the axis-aligned displacement Gaussian of each joint in
    the int array joints, in order; returns (len(joints), 2)."""
    absent = joints[~stats.present[joints]]
    if len(absent):
        raise InvalidArgumentError(f"joint {absent[0]} has no displacement statistics")
    return rng.normal(stats.mean[joints], np.sqrt(stats.var[joints]))


# ---------------------------------------------------------------------------
# inference


def predict(model: CascadeModel, image: np.ndarray, b0: np.ndarray | None = None,
            scale: int | float = 1) -> CascadePrediction:
    """Run every stage on image / scale, a float image with scale 1 or an
    8-bit raster and its maxval; returns all intermediate poses for
    diagnostics.

    Stage 1 reads every joint from the one initial box; a later stage reads
    joint i from row i of its output on the box around joint i's previous
    estimate. Either way the output v decodes as v * box size + box center,
    so a zero output at stage s >= 2 reproduces the previous pose exactly.
    b0 is the (4,) row cx, cy, w, h of the initial box, the full image when
    None. If an intermediate pose gives a box side sigma * diameter below one
    pixel or not finite, or a refinement stage outputs a non-finite value, the
    cascade stops at the previous pose and the result is flagged truncated.
    A non-finite stage-1 output raises InvalidArgumentError, since there is
    no earlier pose to keep.

    The stages run with BLAS pinned to one thread (nn.one_blas_thread), so a
    prediction has the same bits at any thread count, whichever process
    runs it.
    """
    k, store = model.tree.k, ImageStore([image], [scale])
    if b0 is None:
        b0 = full_image_box(image.shape[1], image.shape[0])
    boxes, rows = np.asarray(b0, dtype=np.float64).reshape(1, 4), np.zeros(k, dtype=int)
    poses: list[PoseVector] = []
    with nn.one_blas_thread():
        for s, net in enumerate(model.stages):
            if s > 0:
                try:
                    boxes = joint_box(poses[-1], model.sigma, model.tree)
                except InvalidArgumentError:  # every joint is present: the side is degenerate
                    return CascadePrediction(poses, truncated=True)
                rows = np.arange(k)
            crops = net_input(store, np.zeros(len(boxes), np.intp), boxes, model.input_size)
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                outs, _ = nn.forward(net, crops)
            v = outs.reshape(len(boxes), k, 2)[rows, np.arange(k)]
            joints = v * boxes[rows, 2:] + boxes[rows, :2]
            if not np.isfinite(joints).all():
                if s == 0:
                    raise InvalidArgumentError("stage 1 produced a non-finite output")
                return CascadePrediction(poses, truncated=True)
            poses.append(PoseVector(joints, np.ones(k, dtype=bool)))
    return CascadePrediction(poses)


def predict_many(model: CascadeModel, examples) -> list[CascadePrediction]:
    """predict() on each example's pixels, scale and initial box, in order:
    the list a loop of predict calls returns, or the exception of the first
    example that raised, as that loop raises it.

    From PREDICT_FORK_MIN examples on, the call forks one worker process
    (workers.forked) and runs the examples in pairs (workers.pairs), as
    training runs its slices: the worker predicts each odd-indexed example,
    inherited through the fork, while the caller predicts the even one
    before it; the predictions come back pickled in example order. Below
    it, the caller predicts every example; where os.fork does not exist,
    the same pairs run one after another on the calling thread.
    """
    examples = list(examples)

    def one(i: int) -> CascadePrediction:
        ex = examples[i]
        return predict(model, ex.pixels, ex.box0, ex.scale)

    if len(examples) < PREDICT_FORK_MIN:
        return [one(i) for i in range(len(examples))]
    with workers.forked(one, "prediction") as worker:
        return list(workers.pairs(worker, one, range(len(examples))))


# ---------------------------------------------------------------------------
# serialization: one container header (the cascade settings, the stats and
# each stage's layers), then every stage's parameters as raw little-endian
# float32 in stage and layer order, their shapes following from the layers

_TREE_PAIRS = ("limbs", "torso_pairs", "left_right_swap")
_STATS_FIELDS = ("mean", "var", "present", "count")


def cascade_to_bytes(model: CascadeModel) -> bytes:
    """The model file; raises InvalidArgumentError on a stage it cannot hold."""
    for s, net in enumerate(model.stages):
        if net.input_size != tuple(model.input_size) or net.output_dim != 2 * model.tree.k:
            raise InvalidArgumentError(
                f"stage {s + 1} maps {net.input_size} to {net.output_dim} values, "
                f"the cascade needs {tuple(model.input_size)} to {2 * model.tree.k}"
            )
        if net.dtype != np.float32:
            raise InvalidArgumentError(f"stage {s + 1} is {net.dtype}, model files hold float32")
        _check_finite_params(s + 1, net)
    header = {
        "format_version": CASCADE_FORMAT_VERSION,
        "sigma": model.sigma,
        "input_size": list(model.input_size),
        "tree": {"k": model.tree.k,
                 **{name: [list(p) for p in getattr(model.tree, name)] for name in _TREE_PAIRS}},
        "stages": [[nn.spec_to_dict(spec) for spec in net.layers] for net in model.stages],
        "stats": [None if st is None else {f: getattr(st, f).tolist() for f in _STATS_FIELDS}
                  for st in model.stats],
    }
    blobs = [container.pack_header(CASCADE_MAGIC, header)]
    for net in model.stages:
        blobs += [p[key].astype("<f4").tobytes() for p in net.params if p is not None
                  for key in ("w", "b")]
    return b"".join(blobs)


def _check_finite_params(stage: int, net: nn.Network) -> None:
    """Raise InvalidArgumentError naming the first layer of the stage whose
    parameters are not all finite; no file holds such a stage."""
    for idx, p in enumerate(net.params):
        if p is not None and not (np.isfinite(p["w"]).all() and np.isfinite(p["b"]).all()):
            kind = nn.spec_to_dict(net.layers[idx])["kind"]
            raise InvalidArgumentError(f"stage {stage}: layer {idx} ({kind}) has non-finite parameters")


def _stats_from_header(st: dict | None, k: int) -> DisplacementStats | None:
    if st is None:
        return None
    arrays = [np.array(st[f], dtype=t) for f, t in zip(_STATS_FIELDS, (float, float, bool, int))]
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
        tree = PoseTree(int(t["k"]), *([tuple(p) for p in t[name]] for name in _TREE_PAIRS))
        stats = [_stats_from_header(st, tree.k) for st in header["stats"]]
        sigma = header["sigma"]  # checked by CascadeModel
        input_size = tuple(int(v) for v in header["input_size"])
        stage_specs = list(header["stages"])
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
        raise InvalidArgumentError(f"malformed cascade header: {e!r}") from None
    _check_input_size(input_size)  # before the sides shape any stage
    stages = []
    for s, specs in enumerate(stage_specs):
        try:
            layers = [nn.spec_from_dict(d) for d in specs]
            shapes = nn.param_shapes(layers, input_size, 2 * tree.k)
        except InvalidArgumentError as e:
            raise InvalidArgumentError(f"stage {s + 1}: {e}") from None
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
            raise InvalidArgumentError(f"stage {s + 1}: malformed layers: {e!r}") from None
        params = [None if sh is None else {"w": r.float32(sh[0]), "b": r.float32(sh[1])}
                  for sh in shapes]
        stages.append(nn.Network(input_size, layers, params, 2 * tree.k, dtype=np.float32))
        _check_finite_params(s + 1, stages[-1])
    r.finish()
    return CascadeModel(stages, stats, sigma, tree, input_size)


def save_cascade(model: CascadeModel, path) -> None:
    """Write the model file; a model cascade_to_bytes refuses leaves no file,
    and a path that cannot be written is bad input."""
    with file_access("write model file", path):
        Path(path).write_bytes(cascade_to_bytes(model))


def load_cascade(path) -> CascadeModel:
    with file_access("read model file", path):
        data = Path(path).read_bytes()
    return cascade_from_bytes(data)

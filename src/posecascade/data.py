"""Dataset ingestion, mirroring, and the synthetic stick-figure generator.

The on-disk dataset is a plain-text manifest next to binary PGM/PPM images:

    k=<int>
    name <i> <label>          # optional, one per joint
    limb <a> <b>              # kinematic tree edges
    torso <a> <b>             # opposing shoulder/hip pairs
    swap <a> <b>              # joints exchanged under mirroring
    <image-path> <b0|-> <x1> <y1> <v1> ... <xk> <yk> <vk>

with '#' comments, whitespace-separated tokens, b0 encoded as cx,cy,w,h and
v in {0,1} flagging whether the joint is labeled. Coordinates and box values
lie within +-geometry.MAX_COORD pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, file_access
from .geometry import MAX_COORD, PoseTree, PoseVector, parse_box


@dataclass
class AnnotatedExample:
    image_path: str
    pose: PoseVector
    box0: np.ndarray | None = None  # (4,) row cx, cy, w, h


@dataclass
class DatasetManifest:
    k: int
    tree: PoseTree
    joint_names: list[str]
    examples: list[AnnotatedExample] = field(default_factory=list)
    root: str = ""  # directory image paths are relative to; not serialized

    def __post_init__(self):
        if len(self.joint_names) != self.k:
            raise InvalidArgumentError(f"{len(self.joint_names)} joint names for k={self.k}")
        if len(set(self.joint_names)) != self.k:
            raise InvalidArgumentError("joint names must be unique")
        if self.tree.k != self.k:
            raise InvalidArgumentError(f"pose tree k={self.tree.k} does not match k={self.k}")
        for idx, ex in enumerate(self.examples):
            if ex.pose.k != self.k:
                raise InvalidArgumentError(
                    f"example {idx} ({ex.image_path}) has {ex.pose.k} joints, expected {self.k}"
                )


@dataclass
class LoadedExample:
    """An AnnotatedExample with its image in memory as pixels / scale.

    An image decoded from a file keeps its (H, W, C) uint8 raster as pixels
    and its maxval as scale: one byte per pixel and channel. An image made in
    memory is its float array, of values in [0, 1], with scale 1. The float
    image is made only where it is read, by .image.
    """

    pixels: np.ndarray  # (H, W, C) uint8 raster, or (H, W[, C]) floats
    pose: PoseVector
    box0: np.ndarray | None
    image_path: str
    scale: int | float = 1  # maxval of a raster

    @property
    def image(self) -> np.ndarray:
        """pixels / scale, as float64: for a decoded file, bit for bit what
        load_image returns."""
        return np.divide(self.pixels, self.scale, dtype=np.float64)


# ---------------------------------------------------------------------------
# manifest text format


def load_manifest(path) -> DatasetManifest:
    """Parse a manifest file, which needs a record; errors carry 1-based line numbers."""
    path = Path(path)
    k = None
    names: dict[int, str] = {}
    pairs: dict[str, list[tuple[int, int]]] = {"limb": [], "torso": [], "swap": []}
    examples: list[AnnotatedExample] = []
    with file_access("read manifest", path):
        text = path.read_text(encoding="utf-8")
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        try:
            if k is None:
                if not line.startswith("k="):
                    raise InvalidArgumentError("manifest must start with k=<int>")
                try:
                    k = int(line[2:])
                except ValueError:
                    raise InvalidArgumentError(f"bad joint count {line!r}") from None
                if k < 2:
                    raise InvalidArgumentError(f"k must be >= 2, got {k}")
            elif head in pairs:
                try:
                    pairs[head].append((int(tokens[1]), int(tokens[2])))
                except (ValueError, IndexError):
                    raise InvalidArgumentError(f"expected two joint indices, got {tokens[1:]}") from None
            elif head == "name":
                try:
                    _, idx, label = tokens
                    idx = int(idx)
                except ValueError:
                    raise InvalidArgumentError(f"bad name declaration {line!r}") from None
                if not 0 <= idx < k:
                    raise InvalidArgumentError(f"joint name index {idx} out of range for k={k}")
                names[idx] = label
            else:
                # record line: path, box, then k (x, y, v) triples
                if len(tokens) < 2:
                    raise InvalidArgumentError(f"truncated record {line!r}")
                if len(tokens) - 2 != 3 * k:
                    raise InvalidArgumentError(
                        f"record {head!r} has {(len(tokens) - 2) // 3} joints, expected {k}"
                    )
                box = None if tokens[1] == "-" else parse_box(tokens[1])
                try:
                    vals = [float(t) for t in tokens[2:]]
                except ValueError:
                    raise InvalidArgumentError(f"non-numeric coordinate in {head!r}") from None
                triples = np.array(vals).reshape(k, 3)
                if np.any(np.abs(triples[:, :2]) > MAX_COORD):
                    raise InvalidArgumentError(f"joint coordinate beyond +-{MAX_COORD:g} pixels")
                if not np.all(np.isin(triples[:, 2], (0.0, 1.0))):
                    raise InvalidArgumentError("visibility flags must be 0 or 1")
                pose = PoseVector(triples[:, :2], triples[:, 2] > 0)
                examples.append(AnnotatedExample(head, pose, box))
        except InvalidArgumentError as e:
            raise InvalidArgumentError(f"line {line_no}: {e}") from None

    if k is None:
        raise InvalidArgumentError("line 1: empty manifest")
    if not examples:  # checked before anything of size k is built
        raise InvalidArgumentError(f"manifest {path} has no records")
    joint_names = [names.get(i, f"j{i}") for i in range(k)]
    try:
        tree = PoseTree(k, pairs["limb"], pairs["torso"], pairs["swap"])
    except InvalidArgumentError as e:
        raise InvalidArgumentError(f"bad pose tree: {e}") from None
    return DatasetManifest(k, tree, joint_names, examples, root=str(path.parent))


def _check_token(what: str, text: str) -> None:
    """Refuse text that would not read back as one manifest token."""
    if not text or "#" in text or any(ch.isspace() for ch in text):
        raise InvalidArgumentError(f"{what} {text!r} is empty or holds whitespace or '#'")


def save_manifest(manifest: DatasetManifest, path) -> None:
    """Write a manifest; load_manifest(save_manifest(m)) is the identity on
    data. A joint name or image path that would not read back as itself
    raises InvalidArgumentError before anything is written."""
    lines = [f"k={manifest.k}"]
    for i, name in enumerate(manifest.joint_names):
        _check_token("joint name", name)
        lines.append(f"name {i} {name}")
    for a, b in manifest.tree.limbs:
        lines.append(f"limb {a} {b}")
    for a, b in manifest.tree.torso_pairs:
        lines.append(f"torso {a} {b}")
    for a, b in manifest.tree.left_right_swap:
        lines.append(f"swap {a} {b}")
    for ex in manifest.examples:
        _check_token("image path", ex.image_path)
        if ex.image_path in ("limb", "torso", "swap", "name"):
            raise InvalidArgumentError(f"image path {ex.image_path!r} is a manifest keyword")
        box = "-" if ex.box0 is None else ",".join(repr(float(v)) for v in ex.box0)
        triples = " ".join(
            f"{float(x)!r} {float(y)!r} {int(v)}"
            for (x, y), v in zip(ex.pose.joints, ex.pose.mask)
        )
        lines.append(f"{ex.image_path} {box} {triples}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_examples(manifest: DatasetManifest) -> list[LoadedExample]:
    """Decode every referenced image, resolving paths against manifest.root,
    and keep each as its 8-bit raster and maxval."""
    out = []
    for ex in manifest.examples:
        raster, maxval = _decode_image(Path(manifest.root) / ex.image_path)
        out.append(LoadedExample(raster, ex.pose, ex.box0, ex.image_path, maxval))
    return out


# ---------------------------------------------------------------------------
# binary PGM (P5) / PPM (P6) images


def load_image(path) -> np.ndarray:
    """Decode a binary graymap/pixmap into (H, W, C) float64 scaled to [0, 1]."""
    raster, maxval = _decode_image(path)
    return raster / maxval


def _decode_image(path) -> tuple[np.ndarray, int]:
    """The (H, W, C) uint8 raster of a binary graymap/pixmap and its maxval.
    A malformed file, or a sample above maxval, raises InvalidArgumentError
    naming the file."""
    with file_access("read image", path):
        data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise InvalidArgumentError(f"{path}: unsupported magic {magic!r}")
    # header: magic, width, height, maxval as whitespace/comment-separated tokens
    pos = 2
    tokens = []
    while len(tokens) < 3:
        if pos >= len(data):
            raise InvalidArgumentError(f"{path}: truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise InvalidArgumentError(f"{path}: non-numeric header {tokens}") from None
    if width <= 0 or height <= 0 or not (0 < maxval < 256):
        raise InvalidArgumentError(f"{path}: bad dimensions {width}x{height} maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    n = width * height * channels
    raster = data[pos : pos + n]
    if len(raster) < n:
        raise InvalidArgumentError(f"{path}: raster truncated ({len(raster)} of {n} bytes)")
    img = np.frombuffer(raster, dtype=np.uint8, count=n).reshape(height, width, channels)
    if maxval < 255 and img.max() > maxval:
        raise InvalidArgumentError(f"{path}: sample {img.max()} above maxval {maxval}")
    return img, maxval


def save_image(img: np.ndarray, path) -> None:
    """Write (H, W), (H, W, 1) or (H, W, 3) values in [0, 1] as 8-bit PGM/PPM."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise InvalidArgumentError(f"cannot encode image of shape {img.shape}")
    h, w, c = img.shape
    raster = np.rint(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(raster.tobytes())


# ---------------------------------------------------------------------------
# mirroring


def mirror_example(pose: PoseVector, image: np.ndarray, tree: PoseTree,
                   box0: np.ndarray | None = None):
    """Horizontal flip of an (image, pose[, box]) triple.

    x coordinates map to (width - 1) - x, left/right joints (and their mask
    bits) trade places per the tree's swap pairs. An involution. The flipped
    image is a view of `image`, not a copy.
    """
    if image.ndim == 2:
        image = image[:, :, None]
    width = image.shape[1]
    flipped = image[:, ::-1, :]
    joints = pose.joints.copy()
    joints[:, 0] = (width - 1) - joints[:, 0]
    mask = pose.mask.copy()
    for a, b in tree.left_right_swap:
        joints[[a, b]] = joints[[b, a]]
        mask[[a, b]] = mask[[b, a]]
    new_box = None
    if box0 is not None:
        new_box = np.array(box0, dtype=np.float64)
        new_box[0] = (width - 1) - new_box[0]
    return PoseVector(joints, mask), flipped, new_box


# ---------------------------------------------------------------------------
# synthetic stick figures

JOINT_NAMES = [
    "head",
    "l_shoulder",
    "r_shoulder",
    "l_elbow",
    "r_elbow",
    "l_wrist",
    "r_wrist",
    "l_hip",
    "r_hip",
]


def default_tree() -> PoseTree:
    """The generator's fixed 9-joint skeleton."""
    return PoseTree(
        k=9,
        limbs=[(0, 1), (0, 2), (1, 3), (3, 5), (2, 4), (4, 6), (1, 7), (2, 8)],
        torso_pairs=[(1, 8), (2, 7)],
        left_right_swap=[(1, 2), (3, 4), (5, 6), (7, 8)],
    )


# The figure's fixed proportions and looks: each range is drawn uniformly
# per figure. Lengths are fractions of the sampled torso length, the torso
# itself a fraction of min(image dims); angles are in radians.
TORSO_FRAC = (0.36, 0.52)
SHOULDER_FRAC = (0.30, 0.40)
HIP_FRAC = (0.22, 0.32)
HEAD_FRAC = (0.24, 0.34)
UPPER_ARM_FRAC = (0.40, 0.52)
FOREARM_FRAC = (0.34, 0.46)
TILT_RANGE = (-0.30, 0.30)
SHOULDER_ANGLE_RANGE = (0.15, 1.25)  # outward from down
ELBOW_ANGLE_RANGE = (-1.00, 1.00)  # relative to upper arm
THICKNESS_RANGE = (1.4, 2.6)  # stroke width in pixels
INK_RANGE = (0.05, 0.30)  # stroke intensity
BACKGROUND = 0.85


@dataclass
class SynthConfig:
    count: int
    seed: int = 0
    image_size: tuple[int, int] = (64, 64)  # (width, height)
    noise_level: float = 0.03  # std of the background noise

    def __post_init__(self):
        if self.count < 1:
            raise InvalidArgumentError("count must be >= 1")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        # at 6 px or less every joint of a figure falls on one point
        if min(self.image_size) < 7:
            raise InvalidArgumentError(f"image sides must be >= 7, got {self.image_size}")
        if not (math.isfinite(self.noise_level) and self.noise_level >= 0):
            raise InvalidArgumentError(
                f"noise level must be finite and >= 0, got {self.noise_level}"
            )


def _rot(v: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def sample_pose(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Sample one figure's 9 joints, all inside the image with a small margin."""
    w, h = config.image_size
    margin = 2.5
    u = rng.uniform
    for _ in range(100):
        t = u(*TORSO_FRAC) * min(w, h)
        tilt = u(*TILT_RANGE)
        down = np.array([math.sin(tilt), math.cos(tilt)])
        perp = np.array([math.cos(tilt), -math.sin(tilt)])
        neck = np.array([u(0.30, 0.70) * w, u(0.22, 0.45) * h])
        pelvis = neck + t * down
        sw = u(*SHOULDER_FRAC) * t
        hw = u(*HIP_FRAC) * t
        joints = np.zeros((9, 2))
        joints[0] = neck - u(*HEAD_FRAC) * t * down
        joints[1] = neck - sw * perp  # left
        joints[2] = neck + sw * perp
        joints[7] = pelvis - hw * perp
        joints[8] = pelvis + hw * perp
        for side, sh, el, wr in ((+1, 1, 3, 5), (-1, 2, 4, 6)):
            ua = u(*UPPER_ARM_FRAC) * t
            fa = u(*FOREARM_FRAC) * t
            upper = _rot(down, side * u(*SHOULDER_ANGLE_RANGE))
            joints[el] = joints[sh] + ua * upper
            fore = _rot(upper, side * u(*ELBOW_ANGLE_RANGE))
            joints[wr] = joints[el] + fa * fore
        if (
            joints[:, 0].min() >= margin
            and joints[:, 0].max() <= w - 1 - margin
            and joints[:, 1].min() >= margin
            and joints[:, 1].max() <= h - 1 - margin
        ):
            return joints
    # clamp the last draw into bounds; of the figures of `synth --count 200 --seed 0`,
    # this clamps all at sides of 7-10 px, 197 at 12, 30 at 16 and none at 20
    joints[:, 0] = np.clip(joints[:, 0], margin, w - 1 - margin)
    joints[:, 1] = np.clip(joints[:, 1], margin, h - 1 - margin)
    return joints


def _segment_distances(px: np.ndarray, py: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from every pixel center to segment a-b."""
    d = b - a
    L2 = float(d @ d)
    if L2 == 0.0:
        return np.hypot(px - a[0], py - a[1])
    tt = np.clip(((px - a[0]) * d[0] + (py - a[1]) * d[1]) / L2, 0.0, 1.0)
    return np.hypot(px - (a[0] + tt * d[0]), py - (a[1] + tt * d[1]))


def render_figure(config: SynthConfig, joints: np.ndarray, render_rng: np.random.Generator) -> np.ndarray:
    """Draw the figure: anti-aliased dark strokes on a noisy light background.

    All appearance randomness (thickness, ink, noise) comes from render_rng,
    so the same rng state and joints always reproduce the same image.
    """
    w, h = config.image_size
    thickness = render_rng.uniform(*THICKNESS_RANGE)
    ink = render_rng.uniform(*INK_RANGE)
    noise = render_rng.normal(0.0, config.noise_level, size=(h, w))

    px, py = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    tree = default_tree()
    half = thickness / 2.0
    aa = 1.0
    alpha = np.zeros((h, w))
    for a, b in tree.limbs:
        d = _segment_distances(px, py, joints[a], joints[b])
        alpha = np.maximum(alpha, np.clip((half + aa / 2.0 - d) / aa, 0.0, 1.0))
    # head disc
    head_r = max(1.5, 0.45 * np.linalg.norm(joints[0] - 0.5 * (joints[1] + joints[2])))
    d = np.hypot(px - joints[0][0], py - joints[0][1])
    alpha = np.maximum(alpha, np.clip((head_r + aa / 2.0 - d) / aa, 0.0, 1.0))

    bg = np.clip(BACKGROUND + noise, 0.0, 1.0)
    return np.clip(bg * (1.0 - alpha) + ink * alpha, 0.0, 1.0)


def render_example(config: SynthConfig, joints: np.ndarray, index: int) -> np.ndarray:
    """Re-render example `index` of a generated set from its stored joints."""
    return render_figure(config, joints, np.random.default_rng([config.seed, index, 1]))


def synth_generate(config: SynthConfig, out_dir) -> DatasetManifest:
    """Generate `count` figures: PGM images plus a manifest with exact joints."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tree = default_tree()
    examples = []
    for i in range(config.count):
        pose_rng = np.random.default_rng([config.seed, i, 0])
        joints = sample_pose(config, pose_rng)
        img = render_example(config, joints, i)
        name = f"fig_{i:05d}.pgm"
        save_image(img, out_dir / name)
        examples.append(AnnotatedExample(name, PoseVector(joints, np.ones(9, dtype=bool))))
    manifest = DatasetManifest(9, tree, list(JOINT_NAMES), examples, root=str(out_dir))
    save_manifest(manifest, out_dir / "manifest.txt")
    return manifest

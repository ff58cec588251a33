"""Poses, boxes and the bilinear crop everything else builds on.

Coordinates are pixels, x to the right and y down. A box is a float64 row
(cx, cy, w, h) of center and size; n boxes stack as an (n, 4) array.

Two pixel conventions are in use. crop_resample and full_image_box put the
center of pixel (row i, col j) at (x=j+0.5, y=i+0.5): box coordinate u is
sampled at pixel index u - 0.5, and the full-image box spans [0, width].
data.render_figure and data.mirror_example put it at (x=j, y=i) and mirror x
to (width - 1) - x. They are kept apart on purpose: the half-pixel offset
between them is a constant bias in the training targets (the same for
original and mirrored views), which training learns and predict's decode
through the same box undoes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, MissingTorsoError, ShapeError

CROP_FILL = 0.5  # mid-gray for crop regions outside the source image
# Largest coordinate magnitude accepted from a manifest or a box text, in
# pixels: far beyond any image, and small enough that squared distances,
# torso diameters and training targets stay finite.
MAX_COORD = 1e9


@dataclass
class PoseVector:
    """Locations of all k joints plus a per-joint labeled/present mask."""

    joints: np.ndarray  # (k, 2) float64
    mask: np.ndarray  # (k,) bool

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.joints.ndim != 2 or self.joints.shape[1] != 2:
            raise ShapeError(f"joints must be (k, 2), got {self.joints.shape}")
        if self.mask.shape != (self.joints.shape[0],):
            raise ShapeError(
                f"mask length {self.mask.shape} does not match {self.joints.shape[0]} joints"
            )
        if self.k < 2:
            raise InvalidArgumentError("a pose needs at least 2 joints")
        if not np.all(np.isfinite(self.joints)):
            raise InvalidArgumentError("joint coordinates must be finite")

    @property
    def k(self) -> int:
        return self.joints.shape[0]


def parse_box(text: str) -> np.ndarray:
    """The box written as "cx,cy,w,h", as a (4,) float64 row; text that is
    malformed, a size that is not positive or a value beyond MAX_COORD
    raises InvalidArgumentError."""
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidArgumentError(f"box must be cx,cy,w,h, got {text!r}")
    try:
        box = np.array([float(p) for p in parts])
    except ValueError:
        raise InvalidArgumentError(f"non-numeric box {text!r}") from None
    if not np.all(np.abs(box) <= MAX_COORD):  # NaN fails this too
        raise InvalidArgumentError(f"box {text!r} has a value beyond +-{MAX_COORD:g} pixels or NaN")
    if not np.all(box[2:] > 0):
        raise InvalidArgumentError(f"box {text!r} must have a positive size")
    return box


def full_image_box(width: int, height: int) -> np.ndarray:
    """The default box covering a width x height image."""
    return np.array([width / 2.0, height / 2.0, width, height], dtype=np.float64)


@dataclass
class PoseTree:
    """Kinematic structure: limbs, opposing torso pairs, and mirror swaps.

    Limbs must form a forest, a torso pair joins two joints, and swap pairs
    must not share joints.
    """

    k: int
    limbs: list[tuple[int, int]]
    torso_pairs: list[tuple[int, int]]
    left_right_swap: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.limbs = [(int(a), int(b)) for a, b in self.limbs]
        self.torso_pairs = [(int(a), int(b)) for a, b in self.torso_pairs]
        self.left_right_swap = [(int(a), int(b)) for a, b in self.left_right_swap]
        for a, b in self.limbs + self.torso_pairs + self.left_right_swap:
            if not (0 <= a < self.k and 0 <= b < self.k):
                raise InvalidArgumentError(f"joint index ({a}, {b}) out of range for k={self.k}")
        if any(a == b for a, b in self.torso_pairs):
            raise InvalidArgumentError(f"torso pairs {self.torso_pairs} pair a joint with itself")
        # forest check via union-find over the joints the limbs name, so that
        # its cost does not grow with a k read from a file
        parent: dict[int, int] = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.limbs:
            ra, rb = find(a), find(b)
            if ra == rb:
                raise InvalidArgumentError(f"limb ({a}, {b}) closes a cycle")
            parent[ra] = rb
        seen = set()
        for a, b in self.left_right_swap:
            if a == b or a in seen or b in seen:
                raise InvalidArgumentError(f"swap pair ({a}, {b}) overlaps another pair")
            seen.update((a, b))


def pose_diameter(pose: PoseVector, tree: PoseTree) -> float:
    """Mean distance over the fully labeled opposing shoulder/hip pairs.

    Raises MissingTorsoError when no torso pair has both joints present.
    A return of 0.0 (coincident pairs) is the caller's degenerate case.
    """
    dists = []
    for a, b in tree.torso_pairs:
        if pose.mask[a] and pose.mask[b]:
            dists.append(float(np.linalg.norm(pose.joints[a] - pose.joints[b])))
    if not dists:
        raise MissingTorsoError("no torso pair fully labeled")
    return float(np.mean(dists))


def joint_box(pose: PoseVector, sigma: float, tree: PoseTree) -> np.ndarray:
    """The (k, 4) rows of every joint's square box, in refinement training
    and prediction alike: centered on the joint, side sigma * pose_diameter.
    Raises InvalidArgumentError when the side is below one pixel (zero
    included) or not finite, and MissingTorsoError when no torso pair is
    labeled. A box below a pixel crops a near-uniform patch, and its
    targets, offset / side, overflow training as the side shrinks."""
    side = float(sigma) * pose_diameter(pose, tree)  # a Python float overflows to inf silently
    if not (math.isfinite(side) and side >= 1.0):
        raise InvalidArgumentError(f"joint box side {side} is degenerate: below 1 pixel or not finite")
    return np.hstack([pose.joints, np.full((pose.k, 2), side)])


class ImageStore:
    """The channel planes of some images in one float64 array, to crop from.

    Every plane is padded once with a two-pixel CROP_FILL border, and its
    padded rows lie one after another at its own pitch, w + 4, so the four
    bilinear taps of a crop are the store read at one flat index, one to its
    right, one pitch below and one below and to the right, whatever image a
    row reads. Images are (H, W) or (H, W, C); the store has the most
    channels of any image, and each image must have that many or one, which
    crops to that many equal channels. gray marks the images of one
    channel. layout holds, per image, the flat index of its pixel (0, 0),
    the flat distance between its planes (0 for one plane), its height, its
    width and its pitch.
    """

    def __init__(self, images):
        images = [np.asarray(img, dtype=np.float64) for img in images]
        images = [img[:, :, None] if img.ndim == 2 else img for img in images]
        for img in images:
            if img.ndim != 3:
                raise ShapeError(f"image must be (H, W) or (H, W, C), got {img.shape}")
        counts = {img.shape[2] for img in images}
        self.channels = max(counts, default=1)
        if counts - {1, self.channels}:
            raise ShapeError(f"images of {sorted(counts)} channels cannot share a store")
        layout, size = [], 0
        for h, w, c in (img.shape for img in images):
            # its planes one after another, h + 4 rows of w + 4 each
            pitch = w + 4
            plane = (h + 4) * pitch
            layout.append((size + 2 * pitch + 2, 0 if c == 1 else plane, h, w, pitch))
            size += plane * c
        self.layout = np.array(layout, dtype=np.int64).reshape(-1, 5)
        self.gray = self.layout[:, 1] == 0
        self.flat = np.full(size, CROP_FILL)
        for img, (origin, _, h, w, pitch) in zip(images, layout):
            start = origin - 2 * pitch - 2
            planes = self.flat[start : start + (h + 4) * pitch * img.shape[2]]
            planes.reshape(-1, h + 4, pitch)[:, 2:-2, 2 : w + 2] = np.moveaxis(img, 2, 0)

    def crop(self, which, boxes, out_size: tuple[int, int]) -> np.ndarray:
        """Crop image which[i] by row i (cx, cy, w, h) of the (n, 4) box array
        and bilinearly resample to out_size (width, height); returns (n,
        out_h, out_w, C) for the store's C channels.

        Sample positions are the centers of the output pixel grid mapped into
        the box span [center - size/2, center + size/2]. Taps outside the
        image contribute CROP_FILL, so a box with empty image overlap yields
        a uniform fill image rather than an error, however far away a finite
        box lies; a box with an infinite or NaN value raises
        InvalidArgumentError. A crop depends on its image and box alone, not
        on the other rows of the call or the other images of the store:
        every output pixel is (tap00 * wy0) * wx0 + (tap01 * wy0) * wx1 +
        (tap10 * wy1) * wx0 + (tap11 * wy1) * wx1, summed left to right.
        """
        out_w, out_h = int(out_size[0]), int(out_size[1])
        if out_w <= 0 or out_h <= 0:
            raise InvalidArgumentError(f"out_size must be positive, got {out_size}")
        geom = np.asarray(boxes, dtype=np.float64)
        if len(geom) == 0:
            return np.empty((0, out_h, out_w, self.channels))
        bad = np.flatnonzero(~np.isfinite(geom).all(axis=1))
        if len(bad):
            raise InvalidArgumentError(f"box row {bad[0]} is not finite: {geom[bad[0]].tolist()}")
        cx, cy, bw, bh = geom.T[:, :, None]

        # output pixel centers in source pixel coordinates, one row per box; a
        # box near the float range can overflow them to +-inf, whose taps are
        # fill anyway, so their weights are zeroed rather than left NaN
        with np.errstate(over="ignore", invalid="ignore"):
            sx = (cx - bw / 2.0) + (np.arange(out_w) + 0.5) * (bw / out_w) - 0.5
            sy = (cy - bh / 2.0) + (np.arange(out_h) + 0.5) * (bh / out_h) - 0.5
            x0, y0 = np.floor(sx), np.floor(sy)
            fx, fy = sx - x0, sy - y0
        fx = np.where(np.isfinite(fx), fx, 0.0)
        fy = np.where(np.isfinite(fy), fy, 0.0)

        # Clipping the top tap row y0 into [-2, h] changes it only where both
        # tap rows lie outside the image, and the clipped rows are its fill
        # rows (likewise columns); clipping before the int cast keeps far-away
        # rows in range. So one flat index per output pixel and channel
        # addresses all four taps: tap (dy, dx) is the store read at offset
        # dy * pitch + dx from the top-left one.
        origin, step, h, w, pitch = self.layout[which].T[:, :, None]
        y0 = np.clip(y0, -2, h).astype(np.int64)
        x0 = np.clip(x0, -2, w).astype(np.int64)
        at = (origin + y0 * pitch)[:, :, None, None] + x0[:, None, :, None]
        if self.channels > 1:
            at = at + step[:, :, None, None] * np.arange(self.channels)

        wx = ((1.0 - fx)[:, None, :, None], fx[:, None, :, None])
        wy = ((1.0 - fy)[:, :, None, None], fy[:, :, None, None])

        def tap(dy, dx):
            # (n, out_h, out_w, C) weighted tap of the row at, multiplied in place
            t = np.take(self.flat[dx:], at)
            t *= wy[dy]
            t *= wx[dx]
            return t

        out = tap(0, 0)
        out += tap(0, 1)
        at += pitch[:, :, None, None]  # the row below
        out += tap(1, 0)
        out += tap(1, 1)
        return out


def crop_resample(img: np.ndarray, boxes, out_size: tuple[int, int]) -> np.ndarray:
    """Crop img by each row (cx, cy, w, h) of the (n, 4) box array and
    bilinearly resample to out_size (width, height); returns (n, out_h,
    out_w, C). The one-image case of ImageStore.crop, which documents the
    sampling."""
    return ImageStore([img]).crop(np.zeros(len(boxes), dtype=np.intp), boxes, out_size)

import numpy as np
import pytest

from posecascade.data import mirror_example
from posecascade.errors import InvalidArgumentError, MissingTorsoError, ShapeError
from posecascade.geometry import (
    CROP_FILL,
    MAX_COORD,
    ImageStore,
    PoseTree,
    crop_resample,
    full_image_box,
    joint_box,
    parse_box,
    pose_diameter,
)

from conftest import make_pose


# --- box text -----------------------------------------------------------------


def test_parse_box_values():
    b = parse_box("10,12.5,20,24")
    assert b.dtype == np.float64 and b.shape == (4,)
    assert np.array_equal(b, [10.0, 12.5, 20.0, 24.0])
    assert np.array_equal(parse_box(f"{-MAX_COORD},{MAX_COORD},{MAX_COORD},1"),
                          [-MAX_COORD, MAX_COORD, MAX_COORD, 1.0])


@pytest.mark.parametrize("text", ["", "1,2,3", "1,2,3,4,5", "1,2,w,4", "1,2,0,4", "1,2,4,-1",
                                  "nan,2,3,4", "1,2,inf,4",
                                  "0,0,0,5", "0,0,5,-1", "0,nan,5,5",  # zero/negative size, NaN center
                                  "1e300,1e300,1e300,1e300", "1e10,2,3,4", "1,-1e10,3,4",
                                  "1,2,3,1e10", "-inf,2,3,4"])
def test_parse_box_rejects_malformed_text(text):
    with pytest.raises(InvalidArgumentError, match="box"):
        parse_box(text)


def test_full_image_box_is_a_row():
    assert np.array_equal(full_image_box(4, 6), [2.0, 3.0, 4.0, 6.0])
    assert full_image_box(4, 6).dtype == np.float64


# --- pose tree and diameter --------------------------------------------------


def test_tree_rejects_cycles():
    with pytest.raises(InvalidArgumentError):
        PoseTree(3, limbs=[(0, 1), (1, 2), (2, 0)], torso_pairs=[])


def test_tree_rejects_overlapping_swaps():
    with pytest.raises(InvalidArgumentError):
        PoseTree(4, limbs=[], torso_pairs=[], left_right_swap=[(0, 1), (1, 2)])


def test_tree_rejects_out_of_range():
    with pytest.raises(InvalidArgumentError):
        PoseTree(2, limbs=[(0, 5)], torso_pairs=[])


def test_diameter_single_pair(tiny_tree):
    pose = make_pose([(0, 0), (5, 5), (7, 7), (30, 40)])
    assert pose_diameter(pose, tiny_tree) == pytest.approx(50.0)


def test_diameter_coincident_pair_is_zero(tiny_tree):
    pose = make_pose([(3, 4), (5, 5), (7, 7), (3, 4)])
    assert pose_diameter(pose, tiny_tree) == 0.0


def test_diameter_mean_of_pairs():
    tree = PoseTree(4, limbs=[], torso_pairs=[(0, 1), (2, 3)])
    pose = make_pose([(0, 0), (40, 0), (0, 0), (0, 60)])
    assert pose_diameter(pose, tree) == pytest.approx(50.0)


def test_diameter_skips_partially_masked_pairs():
    tree = PoseTree(4, limbs=[], torso_pairs=[(0, 1), (2, 3)])
    pose = make_pose([(0, 0), (40, 0), (0, 0), (0, 60)], mask=[True, False, True, True])
    assert pose_diameter(pose, tree) == pytest.approx(60.0)


def test_diameter_missing_torso(tiny_tree):
    pose = make_pose([(0, 0), (1, 1), (2, 2), (3, 3)], mask=[True, True, True, False])
    with pytest.raises(MissingTorsoError):
        pose_diameter(pose, tiny_tree)


def test_diameter_translation_invariant(tiny_tree):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(4, 2))
    pose = make_pose(pts)
    d0 = pose_diameter(pose, tiny_tree)
    shifted = make_pose(pts + np.array([17.0, -4.5]))
    assert pose_diameter(shifted, tiny_tree) == pytest.approx(d0, abs=1e-9)


# --- joint boxes ---------------------------------------------------------------


def test_joint_box_flic_scale(tiny_tree):
    pose = make_pose([(50, 60), (5, 5), (7, 7), (80, 100)])
    diam = pose_diameter(pose, tiny_tree)
    b = joint_box(pose, 1.0, tiny_tree)
    assert b.shape == (4, 4) and b.dtype == np.float64
    assert np.array_equal(b[:, :2], pose.joints)
    assert np.all(b[:, 2:] == pytest.approx(diam))


def test_joint_box_lsp_scale_doubles(tiny_tree):
    pose = make_pose([(50, 60), (5, 5), (7, 7), (80, 100)])
    b1 = joint_box(pose, 1.0, tiny_tree)
    b2 = joint_box(pose, 2.0, tiny_tree)
    assert np.array_equal(b2[:, 2:], 2.0 * b1[:, 2:])
    assert np.array_equal(b2[:, :2], b1[:, :2])


@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.3, 2.0])
def test_joint_box_rows_equal_per_joint_reference(sigma):
    rng = np.random.default_rng(int(sigma * 10))
    tree = PoseTree(9, limbs=[], torso_pairs=[(1, 8), (2, 7)])
    for _ in range(20):
        pose = make_pose(rng.uniform(-50, 150, size=(9, 2)))
        want = [(x, y, sigma * pose_diameter(pose, tree), sigma * pose_diameter(pose, tree))
                for x, y in pose.joints]
        assert joint_box(pose, sigma, tree).tobytes() == np.array(want).tobytes()


def test_joint_box_rejects_zero_sigma(tiny_tree):
    pose = make_pose([(50, 60), (5, 5), (7, 7), (80, 100)])
    with pytest.raises(InvalidArgumentError):
        joint_box(pose, 0.0, tiny_tree)


def test_joint_box_rejects_zero_diameter(tiny_tree):
    pose = make_pose([(50, 60), (5, 5), (7, 7), (50, 60)])
    # torso pair (0, 3) coincident
    with pytest.raises(InvalidArgumentError):
        joint_box(pose, 1.0, tiny_tree)


@pytest.mark.parametrize("sigma", [0.0199, 1e-3, 1e-40])
def test_joint_box_rejects_a_side_below_one_pixel(tiny_tree, sigma):
    # torso diameter 50: a box below a pixel crops a near-uniform patch,
    # and its targets, offset over side, grow without bound as the side shrinks
    pose = make_pose([(50, 60), (5, 5), (7, 7), (80, 100)])
    with pytest.raises(InvalidArgumentError, match="below 1 pixel"):
        joint_box(pose, sigma, tiny_tree)
    assert np.all(joint_box(pose, 0.02, tiny_tree)[:, 2:] == 1.0)  # one pixel is enough


@pytest.mark.filterwarnings("error")
def test_joint_box_rejects_overflowing_side(tiny_tree):
    pose = make_pose([(50, 60), (5, 5), (7, 7), (80, 100)])
    with pytest.raises(InvalidArgumentError, match="degenerate"):
        joint_box(pose, 1e307, tiny_tree)


def test_joint_box_needs_the_torso_not_every_joint(tiny_tree):
    # joint 1 is not a torso joint: its row is centered on its stored point
    points = [(50, 60), (5, 5), (7, 7), (80, 100)]
    b = joint_box(make_pose(points, mask=[True, False, True, True]), 1.0, tiny_tree)
    assert b.shape == (4, 4)
    assert np.array_equal(b, joint_box(make_pose(points), 1.0, tiny_tree))
    # joint 0 is the torso pair's: no diameter, no box
    with pytest.raises(MissingTorsoError):
        joint_box(make_pose(points, mask=[False, True, True, True]), 1.0, tiny_tree)


# --- crop / resample -----------------------------------------------------------


def test_crop_identity():
    rng = np.random.default_rng(1)
    img = rng.random((12, 10, 1))
    out = crop_resample(img, full_image_box(10, 12)[None], (10, 12))[0]
    assert np.array_equal(out, img)


def test_crop_checkerboard_mean():
    img = np.array([[0.0, 1.0], [1.0, 0.0]])[:, :, None]
    out = crop_resample(img, full_image_box(2, 2)[None], (1, 1))[0]
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == pytest.approx(0.5)


def test_crop_fully_outside_is_fill():
    img = np.zeros((4, 4, 1))
    out = crop_resample(img, [[100.0, 100.0, 8.0, 8.0]], (3, 3))[0]
    assert np.all(out == CROP_FILL)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("center, size", [
    ((1e300, 4.0), (4.0, 4.0)),  # sample positions past the int64 range
    ((-1e300, 4.0), (4.0, 4.0)),
    ((4.0, 1e300), (4.0, 4.0)),
    ((1.5e308, 4.0), (1e308, 4.0)),  # sample positions overflow to inf
    ((4.0, -1.5e308), (4.0, 1e308)),
])
def test_crop_far_outside_is_fill_without_warnings(center, size):
    img = np.random.default_rng(2).random((6, 5, 1))
    out = crop_resample(img, [[*center, *size]], (4, 3))
    assert out.shape == (1, 3, 4, 1)
    assert np.all(out == CROP_FILL)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("column", range(4))
def test_crop_rejects_non_finite_box(bad, column):
    img = np.random.default_rng(2).random((6, 5, 1))
    boxes = np.array([[2.0, 3.0, 4.0, 4.0], [10.0, 10.0, 8.0, 8.0]])
    boxes[1, column] = bad
    with pytest.raises(InvalidArgumentError, match="box row 1 is not finite"):
        crop_resample(img, boxes, (4, 3))


def test_crop_rejects_bad_out_size():
    img = np.zeros((4, 4, 1))
    with pytest.raises(InvalidArgumentError):
        crop_resample(img, full_image_box(4, 4)[None], (0, 3))


def _naive_crop(img, b, out_size):
    """Independent per-pixel bilinear resampler (plain loops)."""
    h, w, ch = img.shape
    ow, oh = out_size
    cx, cy, bw, bh = b
    out = np.empty((oh, ow, ch))
    for r in range(oh):
        for q in range(ow):
            sx = (cx - bw / 2) + (q + 0.5) * (bw / ow) - 0.5
            sy = (cy - bh / 2) + (r + 0.5) * (bh / oh) - 0.5
            x0, y0 = int(np.floor(sx)), int(np.floor(sy))
            fx, fy = sx - x0, sy - y0
            acc = np.zeros(ch)
            for dy, wy in ((0, 1 - fy), (1, fy)):
                for dx, wx in ((0, 1 - fx), (1, fx)):
                    yy, xx = y0 + dy, x0 + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        val = img[yy, xx]
                    else:
                        val = CROP_FILL
                    acc = acc + wy * wx * val
            out[r, q] = acc
    return out


def test_crop_matches_naive_oracle():
    rng = np.random.default_rng(7)
    img = rng.random((9, 11, 3))
    for _ in range(8):
        b = np.array([*rng.uniform(-3, 13, size=2), rng.uniform(0.5, 15), rng.uniform(0.5, 15)])
        out_size = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        got = crop_resample(img, b[None], out_size)[0]
        want = _naive_crop(img, b, out_size)
        assert np.allclose(got, want, atol=1e-12)


def _crop_reference(img, b, out_size):
    """The one-box crop_resample of before batching: clip each tap, then
    replace out-of-image taps by the fill with np.where."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    out_w, out_h = int(out_size[0]), int(out_size[1])
    h, w = img.shape[:2]
    cx, cy, bw, bh = b
    sx = (cx - bw / 2.0) + (np.arange(out_w) + 0.5) * (bw / out_w) - 0.5
    sy = (cy - bh / 2.0) + (np.arange(out_h) + 0.5) * (bh / out_h) - 0.5
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0

    def gather(yi, xi):
        yc = np.clip(yi, 0, h - 1)
        xc = np.clip(xi, 0, w - 1)
        vals = img[yc[:, None], xc[None, :], :]
        ok = ((yi >= 0) & (yi < h))[:, None, None] & ((xi >= 0) & (xi < w))[None, :, None]
        return np.where(ok, vals, CROP_FILL)

    wx0 = (1.0 - fx)[None, :, None]
    wx1 = fx[None, :, None]
    wy0 = (1.0 - fy)[:, None, None]
    wy1 = fy[:, None, None]
    return (
        gather(y0, x0) * wy0 * wx0
        + gather(y0, x0 + 1) * wy0 * wx1
        + gather(y0 + 1, x0) * wy1 * wx0
        + gather(y0 + 1, x0 + 1) * wy1 * wx1
    )


def _mixed_boxes(rng, h, w):
    """Boxes inside the image, straddling each edge, fully outside it,
    sub-pixel, and with width != height."""
    boxes = [
        full_image_box(w, h),
        (w / 2, h / 2, w / 3, h / 5),  # inside, w != h
        (0.0, h / 2, 6.0, 6.0),  # straddles the left edge
        (w - 0.3, h + 1.0, 5.0, 9.0),  # straddles a corner
        (w / 2, -1.5, 3.0, 4.0),  # straddles the top edge
        (-50.0, h / 2, 8.0, 8.0),  # fully outside
        (w + 30.0, h + 30.0, 4.0, 2.0),  # fully outside
        (3.3, 4.7, 0.4, 0.25),  # sub-pixel
        (w - 0.5, h - 0.5, 0.7, 0.9),  # sub-pixel at the corner
    ]
    for _ in range(40):
        boxes.append((*rng.uniform(-0.5 * w, 1.5 * w, size=2),
                      rng.uniform(0.1, 2.0 * w), rng.uniform(0.1, 2.0 * h)))
    return np.array(boxes, dtype=np.float64)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("out_size", [(6, 6), (7, 4), (1, 3)])
def test_batched_crop_bit_identical_to_per_box_reference(channels, out_size):
    rng = np.random.default_rng(channels * 10 + out_size[0])
    img = rng.random((9, 13, channels))
    boxes = _mixed_boxes(rng, 9, 13)
    got = crop_resample(img, boxes, out_size)
    want = np.stack([_crop_reference(img, b, out_size) for b in boxes])
    assert got.shape == (len(boxes), out_size[1], out_size[0], channels)
    assert np.array_equal(got, want)


def test_batched_crop_of_2d_image_matches_reference():
    img = np.random.default_rng(4).random((8, 8))
    boxes = _mixed_boxes(np.random.default_rng(5), 8, 8)
    assert np.array_equal(crop_resample(img, boxes, (5, 6)),
                          np.stack([_crop_reference(img, b, (5, 6)) for b in boxes]))


@pytest.mark.parametrize("shape", [(5, 7), (5, 7, 1), (5, 7, 3)])
def test_crop_of_zero_boxes_is_empty_batch(shape):
    out = crop_resample(np.zeros(shape), np.empty((0, 4)), (4, 3))
    assert out.shape == (0, 3, 4, shape[2] if len(shape) == 3 else 1)


# far enough that the reference's int cast would overflow: the crop is fill
FAR_BOXES = np.array([(1e300, 4.0, 4.0, 4.0), (4.0, -1e300, 4.0, 4.0), (1.5e308, 4.0, 1e308, 4.0)])


def test_store_crops_each_row_from_its_own_image_alone():
    # rows of images of different sizes, gray and color, and of their
    # mirrors, interleaved in one call: each is the per-box reference crop of
    # its own image (a gray one's repeated over the store's three channels),
    # whatever image lies next to it in the store
    rng = np.random.default_rng(21)
    tree = PoseTree(2, [(0, 1)], [(0, 1)], [(0, 1)])
    pose = make_pose([(1.0, 1.0), (3.0, 4.0)])
    images = [rng.random(shape) for shape in [(9, 13, 3), (12, 7, 1), (5, 16, 3), (8, 8, 1), (6, 4, 3)]]
    images += [mirror_example(pose, img, tree)[1] for img in images]
    store = ImageStore(images)
    per_image = [_mixed_boxes(rng, *img.shape[:2]) for img in images]
    which = np.repeat(np.arange(len(images)), [len(b) for b in per_image])
    boxes = np.concatenate(per_image)
    order = rng.permutation(len(boxes))
    got = store.crop(which[order], boxes[order], (7, 5))
    assert store.channels == 3 and got.shape == (len(boxes), 5, 7, 3)
    for crop, i, box in zip(got, which[order], boxes[order]):
        want = _crop_reference(images[i], box, (7, 5))
        assert np.array_equal(crop, np.broadcast_to(want, crop.shape))
    far = store.crop(np.arange(len(FAR_BOXES)), FAR_BOXES, (4, 3))
    assert np.all(far == CROP_FILL)


def test_store_memory_is_its_padded_images_when_one_is_wide():
    # each image is padded at its own pitch: one wide image does not widen
    # the rows of the others, and its rows still crop as its own
    rng = np.random.default_rng(3)
    images = [rng.random((16, 16)) for _ in range(20)] + [rng.random((4, 1000, 3))]
    store = ImageStore(images)
    padded = sum((h + 4) * (w + 4) * c for h, w, c in (np.atleast_3d(img).shape for img in images))
    assert store.flat.nbytes <= 8 * padded
    assert list(store.gray) == [True] * 20 + [False]
    for i in (0, 20):
        boxes = _mixed_boxes(rng, *images[i].shape[:2])
        got = store.crop(np.full(len(boxes), i), boxes, (5, 4))
        want = crop_resample(images[i], boxes, (5, 4))
        assert np.array_equal(got, np.broadcast_to(want, got.shape))


def test_store_takes_gray_or_one_channel_count():
    assert ImageStore([np.zeros((4, 5)), np.zeros((3, 3, 1))]).channels == 1
    assert ImageStore([]).crop([], np.empty((0, 4)), (4, 3)).shape == (0, 3, 4, 1)
    with pytest.raises(ShapeError, match=r"\[2, 3\] channels"):
        ImageStore([np.zeros((4, 4, 2)), np.zeros((4, 4, 3))])
    with pytest.raises(ShapeError, match="image must be"):
        ImageStore([np.zeros((4, 4, 1, 1))])

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecascade import cascade, container, data, nn
from posecascade.errors import InvalidArgumentError
from posecascade.geometry import (ImageStore, PoseTree, crop_resample, full_image_box, parse_box,
                                  pose_diameter)

from conftest import make_pose, wrapping_size_model

TREE = data.default_tree()
K = TREE.k
INPUT = (12, 12, 1)


def tiny_stage_config(**kw):
    defaults = dict(
        sigma=1.0,
        crops_per_joint=2,
        stage1_jitter_crops=1,
        input_size=INPUT,
        hidden=[],
        train=nn.TrainConfig(epochs=1, batch_size=8, seed=1),
        seed=0,
    )
    defaults.update(kw)
    return cascade.StageConfig(**defaults)


def zeroed_net(seed=0, hidden=()):
    config = cascade.StageConfig(sigma=1.0, input_size=INPUT, hidden=list(hidden), seed=seed)
    net = config.build_network(2 * K)
    for p in net.params:
        if p is not None:
            p["w"][:] = 0.0
            p["b"][:] = 0.0
    return net


def random_net(seed=0):
    return cascade.StageConfig(
        sigma=1.0, input_size=INPUT,
        hidden=[nn.Conv(2, 3), nn.ReLU()], seed=seed,
    ).build_network(2 * K)


def spread_pose(center=(16.0, 16.0), scale=8.0):
    """A pose with a comfortably nonzero torso diameter."""
    rng = np.random.default_rng(99)
    tree_zero = np.array([
        (0.0, -1.2), (-1.0, -0.6), (1.0, -0.6), (-1.4, 0.2), (1.4, 0.2),
        (-1.5, 1.0), (1.5, 1.0), (-0.7, 1.1), (0.7, 1.1),
    ])
    return make_pose(np.asarray(center) + scale * tree_zero)


def example_with_pose(pose, size=32, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.random((size, size, 1))
    return data.LoadedExample(img, pose, None, f"mem_{seed}")


# --- net input --------------------------------------------------------------------


def _some_boxes(w, h):
    return np.array([
        full_image_box(w, h),
        (3.0, h - 2.0, 10.0, 6.0),  # straddles a corner
        (-20.0, 5.0, 4.0, 4.0),  # fully outside
        (w / 2, h / 3, 0.6, 0.8),  # sub-pixel
    ])


def _one_image_input(img, boxes, input_size):
    """net_input of every box of the array on the one-image store of img."""
    return cascade.net_input(ImageStore([img]), np.zeros(len(boxes), int), boxes, input_size)


@pytest.mark.parametrize("img_ch, input_size", [
    (1, (12, 12, 1)),
    (3, (12, 12, 1)),  # a color image into a gray net
    (1, (10, 14, 3)),  # a gray image into a color net
    (3, (10, 14, 3)),
])
def test_net_input_of_many_boxes_stacks_per_box_inputs(img_ch, input_size):
    img = np.random.default_rng(img_ch).random((20, 24, img_ch))
    boxes = _some_boxes(24, 20)
    got = _one_image_input(img, boxes, input_size)
    want = np.stack([_one_image_input(img, boxes[j : j + 1], input_size)[0] for j in range(len(boxes))])
    assert got.shape == (len(boxes),) + tuple(input_size) and got.dtype == np.float32
    assert np.array_equal(got, want)
    # the float64 crop, its channels adapted, - 0.5, rounded to float32
    crops = crop_resample(img, boxes, input_size[1::-1])
    if img_ch == 3 and input_size[2] == 1:
        crops = crops.mean(axis=3, keepdims=True)
    assert np.array_equal(got, np.broadcast_to((crops - 0.5).astype(np.float32), got.shape))


def test_net_input_rejects_unadaptable_channels():
    with pytest.raises(InvalidArgumentError, match="cannot adapt 3 channels to 2"):
        _one_image_input(np.zeros((8, 8, 3)), full_image_box(8, 8)[None], (6, 6, 2))


def test_training_inputs_are_the_per_view_crops(monkeypatch):
    # the inputs are cropped from one store when rows are asked for; read
    # through the source they must be the per-view crops, the targets and
    # masks the views', in order
    examples = [example_with_pose(spread_pose(), seed=s) for s in range(2)]
    stats = _delta_stats((1.0, -0.5))
    cfg = tiny_stage_config(crops_per_joint=3)  # 27 views per image, batch_size 8
    seen = {}
    monkeypatch.setattr(nn, "train_epochs",
                        lambda net, x, y, m, *a, **kw: seen.update(x=x, y=y, m=m))
    cascade.train_refinement_stage(examples, _constant_model(), stats, cfg)
    records = list(cascade.refinement_views(examples, TREE, stats, cfg,
                                            np.random.default_rng(cfg.seed)))
    want = np.concatenate([_one_image_input(r.image, r.boxes, INPUT) for r in records])
    x = seen["x"][np.arange(len(seen["x"]))]
    assert len(records) == 4 and x.dtype == np.float32
    assert np.array_equal(x, want)
    assert np.array_equal(seen["y"], np.concatenate(
        [cascade.view_targets(r.boxes, r.offsets, r.masks) for r in records]))
    assert np.array_equal(seen["m"], np.concatenate([r.masks for r in records]))


@pytest.mark.parametrize("input_size", [(12, 12, 1), (10, 14, 3)])
def test_store_inputs_are_each_views_net_input(input_size):
    # gray and color images in one store: every row is the net_input of its
    # own image's one-image store, whichever way its channels adapt to the net's
    rng = np.random.default_rng(5)
    images = [rng.random(shape) for shape in [(20, 24, 3), (16, 9, 1), (7, 30, 3), (12, 12, 1)]]
    boxes = [_some_boxes(img.shape[1], img.shape[0]) for img in images]
    which = np.repeat(np.arange(len(images)), [len(b) for b in boxes])
    source = cascade.StoreInputs(ImageStore(images), which, np.concatenate(boxes), input_size)
    rows = rng.permutation(len(which))
    want = np.concatenate([_one_image_input(img, b, input_size) for img, b in zip(images, boxes)])
    assert len(source) == len(which)
    got = source[rows]
    assert got.dtype == np.float32 and np.array_equal(got, want[rows])


def test_store_inputs_reject_unadaptable_channels_when_made():
    store = ImageStore([np.zeros((8, 8, 3))])
    with pytest.raises(InvalidArgumentError, match="cannot adapt 3 channels to 2"):
        cascade.StoreInputs(store, np.zeros(1, int), full_image_box(8, 8)[None], (6, 6, 2))


def test_refinement_training_memory_does_not_grow_with_crops_per_joint():
    # the crops are made a slice at a time from one store of the images, so
    # 8x the views add only their plan rows (boxes, targets, masks: a few
    # hundred bytes each), never a net input (14 KB at 60x60) per view. A
    # batch of 8 is one slice here, so the peak does not depend on threads.
    size = (60, 60, 1)
    examples = [example_with_pose(spread_pose(), seed=s) for s in range(2)]
    model = cascade.CascadeModel([cascade.StageConfig(sigma=1.0, input_size=size).build_network(2 * K)],
                                 [None], 1.0, TREE, size)

    def peak(crops_per_joint):
        cfg = tiny_stage_config(input_size=size, hidden=[nn.Conv(2, 3), nn.ReLU()],
                                crops_per_joint=crops_per_joint)
        tracemalloc.start()
        try:
            cascade.train_refinement_stage(examples, model, _delta_stats((1.0, -0.5)), cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    views = {c: 2 * len(examples) * K * c for c in (2, 16)}  # each example and its mirror
    grown = peak(16) - peak(2)
    assert grown < (views[16] - views[2]) * math.prod(size) * 4 / 8, grown


# --- stage 1 ----------------------------------------------------------------------


def test_predict_stage1_zero_net_centers_everything():
    model = cascade.CascadeModel([zeroed_net()], [None], 1.0, TREE, INPUT)
    img = np.random.default_rng(0).random((20, 30, 1))
    pose = cascade.predict(model, img).poses[0]
    assert np.allclose(pose.joints, np.tile([15.0, 10.0], (K, 1)))


def test_predict_stage1_geometry_reuse():
    # constant output 0.25 on a full-image 220x220 box lands on (165, 165)
    net = zeroed_net()
    net.params[-1]["b"][:] = 0.25
    model = cascade.CascadeModel([net], [None], 1.0, TREE, INPUT)
    img = np.full((220, 220, 1), 0.3)
    pose = cascade.predict(model, img).poses[0]
    assert np.allclose(pose.joints, 165.0)


def test_predict_stage1_deterministic():
    model = cascade.CascadeModel([random_net(3)], [None], 1.0, TREE, INPUT)
    img = np.random.default_rng(1).random((25, 25, 1))
    a = cascade.predict(model, img).poses[0]
    b = cascade.predict(model, img).poses[0]
    assert np.array_equal(a.joints, b.joints)


def test_stage1_sample_counts():
    examples = [example_with_pose(spread_pose(), seed=s) for s in range(3)]
    cfg = tiny_stage_config(stage1_jitter_crops=2)
    rng = np.random.default_rng(0)
    records = list(cascade.stage1_views(examples, TREE, cfg, rng))
    # 3 examples x 2 flips, each with 1 base + 2 jitter views
    assert len(records) == 3 * 2
    for r in records:
        assert r.boxes.shape == (3, 4) and r.offsets.shape == (3, K, 2) and r.masks.shape == (3, K)
        assert cascade.view_targets(r.boxes, r.offsets, r.masks).shape == (3, 2 * K)


def test_stage1_mirror_view_shares_its_example_image():
    # the mirror's pixels are copied only into the training store, not before
    ex = example_with_pose(spread_pose(), seed=1)
    records = list(cascade.stage1_views([ex], TREE, tiny_stage_config(), np.random.default_rng(0)))
    assert np.shares_memory(records[1].image, ex.image)


def test_stage1_skips_fully_unlabeled(caplog):
    good = example_with_pose(spread_pose(), seed=1)
    bad = data.LoadedExample(
        good.image, make_pose(np.zeros((K, 2)), mask=np.zeros(K, bool)), None, "empty"
    )
    cfg = tiny_stage_config(stage1_jitter_crops=0)
    records = list(cascade.stage1_views([good, bad], TREE, cfg, np.random.default_rng(0)))
    assert [r.image is good.image for r in records] == [True, False]  # only good and its mirror
    assert [len(r.boxes) for r in records] == [1, 1]


def test_train_stage1_constant_target_converges():
    # all poses at the box center: the net should drive outputs toward zero
    examples = []
    for s in range(6):
        img = np.random.default_rng(s).random((16, 16, 1))
        pose = make_pose(np.tile([8.0, 8.0], (K, 1)))
        examples.append(data.LoadedExample(img, pose, None, str(s)))
    cfg = tiny_stage_config(
        stage1_jitter_crops=0,
        train=nn.TrainConfig(epochs=60, batch_size=12, learning_rate=0.1, seed=0),
    )
    net = cascade.train_stage1(examples, TREE, cfg)
    model = cascade.CascadeModel([net], [None], 1.0, TREE, INPUT)
    pose = cascade.predict(model, examples[0].image, full_image_box(16, 16)).poses[0]
    assert np.all(np.abs(pose.joints - 8.0) < 1.0)


# --- displacement stats -------------------------------------------------------------


def _constant_model(bias=0.0):
    net = zeroed_net()
    net.params[-1]["b"][:] = bias
    return cascade.CascadeModel([net], [None], 1.0, TREE, INPUT)


def test_fit_stats_perfect_predictor_zero_stats():
    model = _constant_model()
    # truth exactly at the full-image box center: stage 1 with zero net is perfect
    pose = make_pose(np.tile([16.0, 16.0], (K, 1)))
    examples = [example_with_pose(pose, seed=s) for s in range(3)]
    stats = cascade.fit_displacement_stats(model, examples)
    assert np.allclose(stats.mean, 0.0)
    assert np.allclose(stats.var, 0.0)
    assert stats.present.all()
    assert np.array_equal(stats.count, np.full(K, 3))


def test_fit_stats_hand_values():
    # zero net predicts the image center; truths offset by (1,0) and (3,0)
    model = _constant_model()
    center = np.tile([16.0, 16.0], (K, 1))
    e1 = example_with_pose(make_pose(center - [1.0, 0.0]), seed=1)
    e2 = example_with_pose(make_pose(center - [3.0, 0.0]), seed=2)
    stats = cascade.fit_displacement_stats(model, [e1, e2])
    assert np.allclose(stats.mean, np.tile([2.0, 0.0], (K, 1)))
    assert np.allclose(stats.var, np.tile([2.0, 0.0], (K, 1)))  # unbiased, n-1


def test_fit_stats_unlabeled_joint_absent():
    model = _constant_model()
    mask = np.ones(K, bool)
    mask[4] = False
    pose = make_pose(np.tile([16.0, 16.0], (K, 1)), mask)
    stats = cascade.fit_displacement_stats(model, [example_with_pose(pose)])
    assert not stats.present[4]
    assert stats.count[4] == 0
    with pytest.raises(InvalidArgumentError):
        cascade.sample_displacement(stats, np.array([0, 4]), np.random.default_rng(0))


def _stats_of_predictions(monkeypatch, offsets, truncated, masks=None):
    """fit_displacement_stats when example e's cascade predicts its truth
    shifted by offsets[e], flagged truncated[e]."""
    truth = spread_pose()
    masks = masks or [np.ones(K, bool)] * len(offsets)
    examples = [example_with_pose(make_pose(truth.joints, m), seed=e) for e, m in enumerate(masks)]
    preds = [cascade.CascadePrediction([make_pose(truth.joints + off)], trunc)
             for off, trunc in zip(offsets, truncated)]
    monkeypatch.setattr(cascade, "predict_many", lambda model, exs: preds)
    stats = cascade.fit_displacement_stats(_constant_model(), examples)
    assert np.issubdtype(stats.count.dtype, np.integer)  # a float count changes header bytes
    return stats


def test_fit_stats_skip_truncated_predictions(monkeypatch):
    stats = _stats_of_predictions(monkeypatch, [(1.0, 0.0), (100.0, 5.0), (3.0, 0.0)],
                                  [False, True, False])
    assert np.array_equal(stats.mean, np.tile([2.0, 0.0], (K, 1)))
    assert np.array_equal(stats.var, np.tile([2.0, 0.0], (K, 1)))
    assert np.array_equal(stats.count, np.full(K, 2))
    none = _stats_of_predictions(monkeypatch, [(1.0, 0.0), (3.0, 0.0)], [True, True])
    assert not none.present.any()
    assert np.array_equal(none.count, np.zeros(K, int))
    assert np.array_equal(none.mean, np.zeros((K, 2))) and np.array_equal(none.var, np.zeros((K, 2)))


def test_fit_stats_joint_seen_once_has_zero_variance(monkeypatch):
    once = np.ones(K, bool)
    once[4] = False
    stats = _stats_of_predictions(monkeypatch, [(1.0, -1.0), (3.0, 1.0)], [False, False],
                                  masks=[np.ones(K, bool), once])
    assert stats.present.all()
    assert stats.count[4] == 1 and np.array_equal(np.delete(stats.count, 4), np.full(K - 1, 2))
    assert np.array_equal(stats.mean[4], [1.0, -1.0])
    assert np.array_equal(stats.var[4], [0.0, 0.0])
    assert np.array_equal(stats.var[0], [2.0, 2.0])


def test_sampling_round_trip_matches_fitted_stats():
    rng = np.random.default_rng(7)
    mean = np.tile([1.5, -2.0], (K, 1))
    var = np.tile([4.0, 0.25], (K, 1))
    stats = cascade.DisplacementStats(mean, var, np.ones(K, bool), np.full(K, 100))
    draws = cascade.sample_displacement(stats, np.full(10_000, 2), rng)
    assert np.all(np.abs(draws.mean(axis=0) - mean[2]) / np.abs(mean[2]) < 0.05)
    assert np.all(np.abs(draws.var(axis=0, ddof=1) - var[2]) / var[2] < 0.05)


# --- simulated-prediction samples ----------------------------------------------------


def _delta_stats(delta):
    mean = np.tile(np.asarray(delta, float), (K, 1))
    return cascade.DisplacementStats(mean, np.zeros((K, 2)), np.ones(K, bool), np.full(K, 10))


def _joint_view(ex, i, stats, sigma, rng):
    """The first refinement view of joint i of ex (not of its mirror): its
    target coordinates and its box."""
    cfg = tiny_stage_config(sigma=sigma, crops_per_joint=1)
    r = next(cascade.refinement_views([ex], TREE, stats, cfg, rng))
    (j,) = np.flatnonzero(r.masks[:, i])[:1]
    targets = cascade.view_targets(r.boxes, r.offsets, r.masks)
    return targets[j, 2 * i : 2 * i + 2], r.boxes[j]


def test_sample_pair_zero_delta_targets_origin():
    ex = example_with_pose(spread_pose())
    target, box = _joint_view(ex, 0, _delta_stats((0.0, 0.0)), 1.0, np.random.default_rng(0))
    assert np.allclose(target, 0.0)
    assert np.allclose(box[:2], ex.pose.joints[0])


def test_sample_pair_hand_value():
    # delta (10, 0) in a 100x100 box: target (-0.1, 0)
    pose = spread_pose(center=(60.0, 60.0), scale=1.0)
    # force diameter 100 by scaling the torso cross pairs
    joints = pose.joints.copy()
    d0 = np.linalg.norm(joints[1] - joints[8])
    d1 = np.linalg.norm(joints[2] - joints[7])
    scale = 100.0 / ((d0 + d1) / 2)
    joints = (joints - joints.mean(axis=0)) * scale + [60.0, 60.0]
    pose = make_pose(joints)
    ex = example_with_pose(pose, size=128)
    target, box = _joint_view(ex, 3, _delta_stats((10.0, 0.0)), 1.0, np.random.default_rng(0))
    assert box[2] == pytest.approx(100.0)
    assert np.allclose(target, [-0.1, 0.0], atol=1e-12)


def test_sample_pair_target_bound():
    # |delta| <= sigma * diam / 2 keeps the target within +-0.5 per axis
    ex = example_with_pose(spread_pose())
    diam = pose_diameter(ex.pose, TREE)
    rng = np.random.default_rng(5)
    for _ in range(50):
        delta = rng.uniform(-diam / 2, diam / 2, size=2)
        stats = _delta_stats(delta)
        target, _ = _joint_view(ex, 1, stats, 1.0, rng)
        assert np.all(np.abs(target) <= 0.5 + 1e-12)


def test_sample_pair_reconstructs_truth():
    ex = example_with_pose(spread_pose())
    rng = np.random.default_rng(8)
    stats = cascade.DisplacementStats(
        np.zeros((K, 2)), np.full((K, 2), 6.0), np.ones(K, bool), np.full(K, 10)
    )
    for i in range(K):
        target, box = _joint_view(ex, i, stats, 1.3, rng)
        rec = target * box[2:] + box[:2]
        assert np.all(np.abs(rec - ex.pose.joints[i]) < 1e-9)


@pytest.mark.filterwarnings("error")
def test_refinement_skips_a_pose_whose_side_is_not_finite(caplog):
    # sigma 1e307 times a torso diameter of about 19 overflows to inf, about 14 does not
    wide = example_with_pose(spread_pose(scale=8.0), seed=1)
    narrow = example_with_pose(spread_pose(scale=6.0), seed=2)
    cfg = tiny_stage_config(sigma=1e307, crops_per_joint=1)
    with caplog.at_level("WARNING", logger="posecascade"):
        records = list(cascade.refinement_views([wide, narrow], TREE, _delta_stats((1.0, 0.0)),
                                                cfg, np.random.default_rng(0)))
    assert len(records) == 2 and records[0].image is narrow.image  # narrow and its mirror
    assert caplog.messages == ["skipping mem_1: degenerate joint box"] * 2
    side = 1e307 * pose_diameter(narrow.pose, TREE)
    assert all(np.array_equal(r.boxes[:, 2:], np.full((K, 2), side)) for r in records)
    assert all(np.isfinite(cascade.view_targets(r.boxes, r.offsets, r.masks)).all() for r in records)


def test_refinement_sample_counts():
    examples = [example_with_pose(spread_pose(), seed=s) for s in range(4)]
    stats = _delta_stats((0.0, 0.0))
    cfg = tiny_stage_config(crops_per_joint=3)
    records = list(cascade.refinement_views(examples, TREE, stats, cfg, np.random.default_rng(0)))
    assert len(records) == 4 * 2  # examples x flips
    assert all(len(r.boxes) == K * 3 for r in records)  # joints x crops
    # the same bookkeeping at benchmark scale: 11000 x 40 x 2 x 14 is ~12M
    assert 11000 * 40 * 2 * 14 == 12_320_000
    for r in records:
        t = cascade.view_targets(r.boxes, r.offsets, r.masks).reshape(-1, K, 2)
        assert np.all(r.masks.sum(axis=1) == 1)
        assert np.array_equal(np.flatnonzero(r.masks) % K, np.repeat(np.arange(K), 3))
        assert np.all(t[~r.masks] == 0.0)


def test_views_of_both_stages_denormalize_to_truth():
    # for every view of either stage, the target denormalized by the view's
    # box is the truth on the unmasked joints and exactly 0 on the masked ones
    mask = np.ones(K, bool)
    mask[0] = False  # one example leaves the head unlabeled
    examples = [
        example_with_pose(spread_pose(center=(15.0, 17.0)), seed=1),
        example_with_pose(make_pose(spread_pose(center=(17.0, 15.0), scale=6.0).joints, mask), seed=2),
    ]
    examples[1].box0 = np.array([16.0, 15.0, 24.0, 28.0])
    truths = []  # pose of every (example, mirror) variant, in view order
    for ex in examples:
        truths += [ex.pose, data.mirror_example(ex.pose, ex.image, TREE)[0]]
    jitter, crops = 3, 4
    cfg = tiny_stage_config(stage1_jitter_crops=jitter, crops_per_joint=crops, sigma=1.3)
    rng = np.random.default_rng(4)
    stats = cascade.DisplacementStats(
        rng.normal(0.0, 2.0, (K, 2)), rng.uniform(1.0, 9.0, (K, 2)), np.ones(K, bool), np.full(K, 10)
    )
    stage1 = list(cascade.stage1_views(examples, TREE, cfg, rng))
    expected1 = [np.tile(p.mask, (1 + jitter, 1)) for p in truths]
    refine = list(cascade.refinement_views(examples, TREE, stats, cfg, rng))
    expected2 = [np.repeat(np.eye(K, dtype=bool)[p.mask], crops, axis=0) for p in truths]
    assert len(stage1) == len(refine) == len(truths)
    assert len({tuple(c) for r in stage1 for c in r.boxes[:, :2]}) > len(truths)  # jitter moved boxes
    for r, truth, m in zip(stage1 + refine, truths + truths, expected1 + expected2):
        assert np.array_equal(r.masks, m)
        t = cascade.view_targets(r.boxes, r.offsets, r.masks).reshape(-1, K, 2)
        assert np.all(t[~m] == 0.0)
        rec = t * r.boxes[:, None, 2:] + r.boxes[:, None, :2]
        assert np.all(np.abs(rec - truth.joints)[m] < 1e-9)


def _per_crop_views(examples, stats, cfg, rng):
    """Stage-1 then refinement views built one crop at a time: one size-2
    uniform draw per jitter copy, one normal draw per displacement and one
    box row per view, as (image, box, offset, mask, target) tuples."""
    variants = []
    for ex in examples:
        b0 = ex.box0 if ex.box0 is not None else full_image_box(ex.image.shape[1], ex.image.shape[0])
        variants += [(ex.pose, ex.image, b0), data.mirror_example(ex.pose, ex.image, TREE, b0)]
    views = []
    for pose, img, box in variants:
        boxes = [box]
        for _ in range(cfg.stage1_jitter_crops):
            shift = rng.uniform(-cascade.JITTER_FRAC, cascade.JITTER_FRAC, size=2)
            boxes.append(np.array([*(box[:2] + shift * box[2:]), *box[2:]]))
        views += [(img, b, pose.joints - b[:2], pose.mask) for b in boxes]
    for pose, img, _ in variants:
        side = cfg.sigma * pose_diameter(pose, TREE)
        for i in range(K):
            if not (pose.mask[i] and stats.present[i]):
                continue
            for _ in range(cfg.crops_per_joint):
                delta = rng.normal(stats.mean[i], np.sqrt(stats.var[i]))
                offset = np.zeros((K, 2))
                offset[i] = -delta
                views.append((img, np.array([*(pose.joints[i] + delta), side, side]), offset,
                              np.arange(K) == i))
    return [(img, b, off, m, np.where(m[:, None], off / b[2:], 0.0).reshape(-1))
            for img, b, off, m in views]


def test_view_records_equal_per_crop_views_bit_for_bit():
    # the records consume the generator in the per-crop order and round the
    # same way, which keeps model files byte for byte the same seed for seed
    mask = np.ones(K, bool)
    mask[3] = False
    examples = [
        example_with_pose(spread_pose(center=(15.0, 17.0)), seed=1),
        example_with_pose(make_pose(spread_pose(center=(17.0, 15.0), scale=6.0).joints, mask), seed=2),
    ]
    examples[1].box0 = np.array([16.3, 15.1, 24.5, 28.0])
    present = np.ones(K, bool)
    present[5] = False
    rng = np.random.default_rng(12)
    stats = cascade.DisplacementStats(
        rng.normal(0.0, 2.0, (K, 2)), rng.uniform(0.5, 9.0, (K, 2)), present, np.full(K, 10)
    )
    cfg = tiny_stage_config(stage1_jitter_crops=3, crops_per_joint=4, sigma=1.3)
    loop_rng, array_rng = np.random.default_rng(13), np.random.default_rng(13)
    want = _per_crop_views(examples, stats, cfg, loop_rng)
    records = (list(cascade.stage1_views(examples, TREE, cfg, array_rng))
               + list(cascade.refinement_views(examples, TREE, stats, cfg, array_rng)))
    got = [(r.image, r.boxes[j], r.offsets[j], r.masks[j], t)
           for r in records for j, t in enumerate(cascade.view_targets(r.boxes, r.offsets, r.masks))]
    assert len(got) == len(want) == 4 * 4 + (2 * (K - 1) + 2 * (K - 2)) * 4
    for (img, box, off, m, t), (img0, b0, off0, m0, t0) in zip(got, want):
        assert np.array_equal(img, img0)
        assert box.tobytes() == b0.tobytes()
        assert off.tobytes() == off0.tobytes() and t.tobytes() == t0.tobytes()
        assert np.array_equal(m, m0)
    assert array_rng.bit_generator.state == loop_rng.bit_generator.state


def test_train_refinement_rejects_empty():
    model = _constant_model()
    stats = cascade.DisplacementStats(
        np.zeros((K, 2)), np.zeros((K, 2)), np.zeros(K, bool), np.zeros(K, int)
    )
    with pytest.raises(InvalidArgumentError):
        cascade.train_refinement_stage(
            [example_with_pose(spread_pose())], model, stats, tiny_stage_config()
        )


def test_train_refinement_appends_stage():
    examples = [example_with_pose(spread_pose(), seed=s) for s in range(2)]
    model = _constant_model()
    stats = _delta_stats((1.0, 0.5))
    net = cascade.train_refinement_stage(examples, model, stats, tiny_stage_config())
    assert model.num_stages == 2
    assert model.stages[1] is net
    assert model.stats[1] is stats


@pytest.mark.parametrize("kw", [dict(sigma=1.5), dict(input_size=(10, 10, 1))])
def test_train_refinement_rejects_config_unlike_model(kw):
    # predict serves the stage with boxes of the model's sigma, cropped at the
    # model's input size; a stage trained on other boxes or crops must not join
    model = _constant_model()
    with pytest.raises(InvalidArgumentError, match="does not match the model"):
        cascade.train_refinement_stage([example_with_pose(spread_pose())], model,
                                       _delta_stats((1.0, 0.5)), tiny_stage_config(**kw))
    assert model.num_stages == 1


def test_train_cascade_yields_the_model_after_each_stage():
    examples = [example_with_pose(spread_pose(), seed=s) for s in range(2)]
    configs = [tiny_stage_config(seed=s, train=nn.TrainConfig(epochs=1, batch_size=8, seed=s))
               for s in (1, 2, 3)]
    epochs = []
    progress = lambda stage, epoch, loss: epochs.append((stage, epoch))
    seen = [(m, m.num_stages) for m in cascade.train_cascade(examples, TREE, configs, progress)]
    assert [n for _, n in seen] == [1, 2, 3]
    assert all(m is seen[0][0] for m, _ in seen)
    assert epochs == [(1, 0), (2, 0), (3, 0)]  # one epoch each, numbered from 0
    # the same draws as the three step functions called by hand
    net = cascade.train_stage1(examples, TREE, configs[0])
    model = cascade.CascadeModel([net], [None], 1.0, TREE, INPUT)
    for config in configs[1:]:
        stats = cascade.fit_displacement_stats(model, examples)
        cascade.train_refinement_stage(examples, model, stats, config)
    assert cascade.cascade_to_bytes(seen[0][0]) == cascade.cascade_to_bytes(model)


def test_train_cascade_without_torso_pair_raises_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        pytest.fail("stage 1 trained before the missing torso pair was reported")

    no_torso = PoseTree(K, TREE.limbs, [], TREE.left_right_swap)
    examples = [example_with_pose(spread_pose())]
    with monkeypatch.context() as m:
        m.setattr(cascade, "train_stage1", no_training)
        with pytest.raises(InvalidArgumentError, match="torso pair"):
            next(cascade.train_cascade(examples, no_torso, [tiny_stage_config()] * 2))
    # a lone holistic stage needs no torso
    (model,) = cascade.train_cascade(examples, no_torso, [tiny_stage_config()])
    assert model.num_stages == 1


@pytest.mark.parametrize("configs, match", [
    ([], "at least one stage config"),
    ([tiny_stage_config(), tiny_stage_config(sigma=1.5)], "does not match the model"),
    ([tiny_stage_config(), tiny_stage_config(input_size=(10, 10, 1))], "does not match the model"),
], ids=["no_config", "other_sigma", "other_input_size"])
def test_train_cascade_rejects_configs_before_training(monkeypatch, configs, match):
    # no config, or a later stage whose boxes or crops predict would not serve
    def no_training(*args, **kwargs):
        pytest.fail("stage 1 trained before the stage configs were rejected")

    monkeypatch.setattr(cascade, "train_stage1", no_training)
    with pytest.raises(InvalidArgumentError, match=match):
        next(cascade.train_cascade([example_with_pose(spread_pose())], TREE, configs))


# A three-stage cascade of the default stack on the synth set in argv[1], its
# model files after each stage and its predictions written into argv[2].
_LIBRARY_RUN = """
import sys
from pathlib import Path
import numpy as np
from posecascade import cascade, data, nn
examples = data.load_examples(data.load_manifest(Path(sys.argv[1]) / "manifest.txt"))
out = Path(sys.argv[2])
configs = [cascade.StageConfig(sigma=1.0, crops_per_joint=1, stage1_jitter_crops=0,
                               train=nn.TrainConfig(epochs=1, seed=s), seed=s) for s in (1, 2, 3)]
for stage, model in enumerate(cascade.train_cascade(examples, data.default_tree(), configs), start=1):
    cascade.save_cascade(model, out / f"stage{stage}.model")
np.save(out / "poses.npy", [p.final.joints for p in cascade.predict_many(model, examples)])
"""


def test_library_cascade_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS can round a float32 GEMM differently at 2 threads than at 1. The
    # stats fitted from stage 1's predictions feed stage 2's training set, so a
    # library caller gets the same bytes only because train_step and predict pin
    data.synth_generate(data.SynthConfig(4, seed=7), tmp_path / "d")
    src = str(Path(cascade.__file__).resolve().parents[1])
    written = []
    for threads in ("2", "1"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _LIBRARY_RUN, str(tmp_path / "d"), str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(written[0]) == ["poses.npy", "stage1.model", "stage2.model", "stage3.model"]
    assert written[0] == written[1]


# --- cascade inference ----------------------------------------------------------------


def _two_stage_model(stage2_net):
    stats = _delta_stats((0.0, 0.0))
    return cascade.CascadeModel([random_net(1), stage2_net], [None, stats], 1.0, TREE, INPUT)


def test_zero_refinement_is_identity():
    model = _two_stage_model(zeroed_net())
    rng = np.random.default_rng(2)
    for _ in range(5):
        img = rng.random((40, 40, 1))
        result = cascade.predict(model, img)
        assert len(result.poses) == 2
        assert np.array_equal(result.poses[0].joints, result.poses[1].joints)
        assert not result.truncated


def test_refinement_displacement_arithmetic():
    # stage-2 constant output -0.1 on x, 0 on y: every joint moves by
    # (-0.1 * side, 0) where side = sigma * diam of the stage-1 pose
    net2 = zeroed_net()
    net2.params[-1]["b"][0::2] = -0.1
    stage1 = zeroed_net(seed=5)
    # make stage 1 output the spread pose inside a known box
    pose = spread_pose(center=(20.0, 20.0), scale=6.0)
    b0 = full_image_box(40, 40)
    v = (pose.joints - b0[:2]) / b0[2:]
    stage1.params[-1]["b"][:] = v.reshape(-1)
    stats = _delta_stats((0.0, 0.0))
    model = cascade.CascadeModel([stage1, net2], [None, stats], 1.0, TREE, INPUT)
    img = np.random.default_rng(0).random((40, 40, 1))
    result = cascade.predict(model, img)
    side = 1.0 * pose_diameter(result.poses[0], TREE)
    moved = result.poses[1].joints - result.poses[0].joints
    assert np.allclose(moved, np.tile([-0.1 * side, 0.0], (K, 1)), atol=1e-9)


def test_refinement_locality_bound():
    model = _two_stage_model(random_net(9))
    img = np.random.default_rng(3).random((40, 40, 1))
    result = cascade.predict(model, img)
    diam = pose_diameter(result.poses[0], TREE)
    outs, _ = nn.forward(
        model.stages[1],
        _one_image_input(img, cascade.joint_box(result.poses[0], 1.0, TREE), INPUT),
    )
    bound = np.abs(outs).max() * 1.0 * diam
    moved = np.abs(result.poses[1].joints - result.poses[0].joints)
    assert np.all(moved <= bound + 1e-9)


def test_predict_feeds_every_stage_the_training_inputs_of_its_boxes(monkeypatch):
    # predict crops each stage from the one store of its image, to the
    # float32 rows a StoreInputs of that image and those boxes gives training
    model = _two_stage_model(random_net(9))
    img = np.random.default_rng(4).random((40, 36, 3))
    seen, forward = [], nn.forward

    def recording_forward(net, x, *args, **kwargs):
        seen.append(x)
        return forward(net, x, *args, **kwargs)

    monkeypatch.setattr(nn, "forward", recording_forward)
    result = cascade.predict(model, img)
    boxes = [full_image_box(36, 40)[None], cascade.joint_box(result.poses[0], 1.0, TREE)]
    assert len(seen) == model.num_stages == len(result.poses)
    for x, b in zip(seen, boxes):
        rows = cascade.StoreInputs(ImageStore([img]), np.zeros(len(b), int), b, INPUT)
        assert x.dtype == np.float32 and np.array_equal(x, rows[np.arange(len(b))])


def test_truncation_on_degenerate_diameter():
    # stage 1 puts every joint at the same point: zero diameter stops stage 2
    model = _two_stage_model(zeroed_net())
    model.stages[0] = zeroed_net()  # all joints at box center
    img = np.random.default_rng(0).random((30, 30, 1))
    result = cascade.predict(model, img)
    assert result.truncated
    assert len(result.poses) == 1


@pytest.mark.filterwarnings("error")
def test_truncation_on_overflowing_box_side():
    # sigma 1e300 times a torso diameter of about 2e9 pixels overflows the
    # refinement box side to inf: stage 2 stops at stage 1's pose, silently
    stage1 = zeroed_net(seed=5)
    pose = spread_pose(center=(20.0, 20.0), scale=1e9)
    stage1.params[-1]["b"][:] = ((pose.joints - 20.0) / 40.0).reshape(-1)
    model = cascade.CascadeModel([stage1, zeroed_net()], [None, _delta_stats((0.0, 0.0))],
                                 1e300, TREE, INPUT)
    result = cascade.predict(model, np.random.default_rng(0).random((40, 40, 1)))
    assert result.truncated
    assert len(result.poses) == 1
    assert np.allclose(result.final.joints, pose.joints, rtol=1e-6)


def test_predict_builds_each_stage_boxes_from_one_diameter(monkeypatch):
    from posecascade import geometry

    calls = []
    diameter = geometry.pose_diameter
    for module in (geometry, cascade):  # the callee's own lookup and predict's import
        monkeypatch.setattr(module, "pose_diameter", lambda *a: calls.append(1) or diameter(*a))
    stats = _delta_stats((0.0, 0.0))
    model = cascade.CascadeModel([random_net(1), zeroed_net(2), random_net(3)], [None, stats, stats],
                                 1.0, TREE, INPUT)
    result = cascade.predict(model, np.random.default_rng(4).random((40, 40, 1)))
    assert len(result.poses) == 3 and len(calls) == 2


def test_predict_on_box_text_equals_predict_on_row():
    model = _two_stage_model(random_net(9))
    img = np.random.default_rng(8).random((40, 40, 1))
    row = np.array([18.5, 21.25, 30.0, 26.5])
    from_text = cascade.predict(model, img, parse_box("18.5,21.25,30,26.5"))
    from_row = cascade.predict(model, img, row)
    assert len(from_text.poses) == len(from_row.poses) == 2
    for a, b in zip(from_text.poses, from_row.poses):
        assert a.joints.tobytes() == b.joints.tobytes()
    # the default box is the full-image row
    assert (cascade.predict(model, img).final.joints.tobytes()
            == cascade.predict(model, img, full_image_box(40, 40)).final.joints.tobytes())


def _examples(count, seed=0):
    rng = np.random.default_rng(seed)
    return [data.LoadedExample(rng.random((40, 40, 1)), None, None, f"mem_{i}") for i in range(count)]


def _same_predictions(a, b):
    return len(a) == len(b) and all(
        p.truncated == q.truncated and len(p.poses) == len(q.poses)
        and all(u.joints.tobytes() == v.joints.tobytes() for u, v in zip(p.poses, q.poses))
        for p, q in zip(a, b))


def test_predict_many_on_a_worker_process_gives_the_bits_of_the_predict_loop(monkeypatch, forks, time_bound):
    # the caller predicts the even examples and the forked worker the odd
    # ones; without os.fork the caller predicts them all
    model = _two_stage_model(random_net(9))
    examples = _examples(2 * cascade.PREDICT_FORK_MIN + 1)
    examples[5].box0 = np.array([20.0, 20.0, 1e-3, 1e-3])  # a box too small to refine in
    loop = [cascade.predict(model, ex.image, ex.box0) for ex in examples]
    assert [p.truncated for p in loop].count(True) == 1
    forked = cascade.predict_many(model, examples)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    unforked = cascade.predict_many(model, examples)
    assert _same_predictions(forked, loop) and _same_predictions(unforked, loop)


def test_predict_many_forks_from_its_minimum_on(forks):
    model = _two_stage_model(random_net(9))
    for count, forked in ((cascade.PREDICT_FORK_MIN - 1, 0), (cascade.PREDICT_FORK_MIN, 1)):
        examples = _examples(count, seed=count)
        preds = cascade.predict_many(model, examples)
        assert len(forks) == forked
        assert _same_predictions(preds, [cascade.predict(model, ex.image, ex.box0) for ex in examples])


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "no fork"])
@pytest.mark.parametrize("first, second", [(2, 5), (3, 6), (2, 4), (3, 5)],
                         ids=["caller, then worker", "worker, then caller", "caller, then caller",
                              "worker, then worker"])
@pytest.mark.parametrize("first_error", ["non-finite", "bad box"])
def test_predict_many_raises_what_the_first_failing_example_raised(monkeypatch, forks, time_bound, forked, first,
                                                                   second, first_error):
    # the caller runs the even examples, the worker the odd ones; a NaN image
    # makes stage 1 non-finite, a box of three values does not reshape
    if not forked:
        monkeypatch.delattr(os, "fork")
    stage1 = zeroed_net()
    stage1.params[-1]["w"][:] = 1 / 144  # the mean of the input
    model = cascade.CascadeModel([stage1], [None], 1.0, TREE, INPUT)
    examples = _examples(2 * cascade.PREDICT_FORK_MIN)
    errors = {"non-finite": (InvalidArgumentError, "stage 1 produced a non-finite output"),
              "bad box": (ValueError, "cannot reshape")}
    second_error = next(e for e in errors if e != first_error)
    for i, error in ((first, first_error), (second, second_error)):
        if error == "non-finite":
            examples[i].image = np.full((40, 40, 1), np.nan)
        else:
            examples[i].box0 = np.array([20.0, 20.0, 10.0])
    with pytest.raises(errors[first_error][0], match=errors[first_error][1]):
        cascade.predict_many(model, examples)
    assert len(forks) == forked


@pytest.mark.parametrize("sigma", [0, 0.0, -1.0, np.nan, np.inf, "1.0", True, None, 10**400],
                         ids=["int_zero", "zero", "negative", "nan", "inf", "text", "bool", "none",
                              "huge_int"])
def test_cascade_model_rejects_bad_sigma(sigma):
    with pytest.raises(InvalidArgumentError, match="sigma"):
        cascade.CascadeModel([zeroed_net()], [None], sigma, TREE, INPUT)
    with pytest.raises(InvalidArgumentError, match="sigma"):
        tiny_stage_config(sigma=sigma)


@pytest.mark.parametrize("input_size", [(12, 12, 0), (-4, -4, 1), (12, 12), (12, 12, 1, 1)],
                         ids=["no_channel", "negative", "two_sides", "four_sides"])
def test_cascade_model_rejects_bad_input_size(input_size):
    with pytest.raises(InvalidArgumentError, match="input"):
        cascade.CascadeModel([zeroed_net()], [None], 1.0, TREE, input_size)
    with pytest.raises(InvalidArgumentError, match="input"):
        tiny_stage_config(input_size=input_size)


@pytest.mark.parametrize("sigma", [1, 0.25, np.float32(2.0), 1e300])
def test_cascade_model_accepts_finite_positive_sigma(sigma):
    model = cascade.CascadeModel([zeroed_net()], [None], sigma, TREE, INPUT)
    assert type(model.sigma) is float and model.sigma == sigma  # a numpy float32 too
    assert cascade.cascade_from_bytes(cascade.cascade_to_bytes(model)).sigma == sigma


def overflowing_net():
    """Finite float32 parameters whose output overflows to inf on any input:
    the hidden units are all 3e38 and the output sums two of them."""
    net = zeroed_net(hidden=[nn.FullyConnected(2)])
    net.params[0]["b"][:] = 3e38
    net.params[1]["w"][:] = 1.0
    return net


def test_non_finite_refinement_output_truncates_at_previous_pose():
    img = np.random.default_rng(6).random((40, 40, 1))
    stats = _delta_stats((0.0, 0.0))
    for bad_stage in (1, 2):
        stages = [random_net(1), zeroed_net(2), zeroed_net(3)]
        stages[bad_stage] = overflowing_net()
        assert all(np.isfinite(v).all() for net in stages for p in net.params if p for v in p.values())
        model = cascade.CascadeModel(stages, [None, stats, stats], 1.0, TREE, INPUT)
        result = cascade.predict(model, img)
        assert result.truncated
        assert len(result.poses) == bad_stage
        good = cascade.predict(
            cascade.CascadeModel(stages[:bad_stage], [None, stats][:bad_stage], 1.0, TREE, INPUT),
            img,
        )
        assert not good.truncated
        assert np.array_equal(result.final.joints, good.final.joints)


def test_non_finite_stage1_output_is_invalid_argument():
    model = cascade.CascadeModel([overflowing_net()], [None], 1.0, TREE, INPUT)
    with pytest.raises(InvalidArgumentError, match="stage 1"):
        cascade.predict(model, np.random.default_rng(7).random((40, 40, 1)))


def test_three_stage_model_returns_three_poses():
    stats = _delta_stats((0.0, 0.0))
    model = cascade.CascadeModel(
        [random_net(1), zeroed_net(2), zeroed_net(3)], [None, stats, stats], 1.0, TREE, INPUT
    )
    img = np.random.default_rng(4).random((40, 40, 1))
    result = cascade.predict(model, img)
    assert len(result.poses) == 3


# --- model serialization ---------------------------------------------------------------


def test_cascade_round_trip(tmp_path):
    model = _two_stage_model(random_net(6))
    path = tmp_path / "model.bin"
    cascade.save_cascade(model, path)
    loaded = cascade.load_cascade(path)
    assert loaded.num_stages == 2
    assert loaded.sigma == model.sigma
    assert loaded.tree == model.tree
    assert loaded.input_size == model.input_size
    img = np.random.default_rng(11).random((40, 40, 1))
    a = cascade.predict(model, img)
    b = cascade.predict(loaded, img)
    for pa, pb in zip(a.poses, b.poses):
        assert np.array_equal(pa.joints, pb.joints)
    assert cascade.cascade_to_bytes(model) == cascade.cascade_to_bytes(loaded)


@pytest.mark.parametrize("use_lrn", [False, True])
def test_default_layers_are_the_default_hidden_stack_under_the_output(use_lrn):
    lrn = [nn.LRN()] if use_lrn else []
    assert cascade.default_layers(0.6, 18, use_lrn) == [
        nn.Conv(8, 5), nn.ReLU(), *lrn, nn.MaxPool(2), nn.Conv(16, 3), nn.ReLU(), *lrn,
        nn.MaxPool(2), nn.FullyConnected(128), nn.ReLU(), nn.Dropout(0.6), nn.FullyConnected(18),
    ]
    assert cascade.default_layers(0.6, 18, use_lrn) == \
        cascade.default_hidden(0.6, use_lrn) + [nn.FullyConnected(18)]


def test_stage_networks_are_float32():
    config = tiny_stage_config(hidden=cascade.default_hidden(), input_size=(20, 20, 1))
    net = config.build_network(2 * K)
    assert net.dtype == np.float32
    assert all(p["w"].dtype == np.float32 for p in net.params if p is not None)


def test_float32_cascade_round_trip_keeps_dtype_and_bytes(tmp_path):
    model = _two_stage_model(random_net(6))
    data_ = cascade.cascade_to_bytes(model)
    path = tmp_path / "model.bin"
    path.write_bytes(data_)
    loaded = cascade.load_cascade(path)
    for a, b in zip(model.stages, loaded.stages):
        assert a.dtype == b.dtype == np.float32
        for pa, pb in zip(a.params, b.params):
            if pa is not None:
                assert pb["w"].dtype == np.float32
                assert pa["w"].tobytes() == pb["w"].tobytes()
                assert pa["b"].tobytes() == pb["b"].tobytes()
    cascade.save_cascade(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == data_


def test_cascade_stage_shape_must_match_model():
    model = _two_stage_model(random_net(6))
    model.input_size = (14, 14, 1)  # the stages take 12x12 crops
    with pytest.raises(InvalidArgumentError, match="stage 1"):
        cascade.cascade_to_bytes(model)


def test_cascade_float64_stage_is_not_saved():
    net = nn.init_network([nn.FullyConnected(2 * K)], INPUT, 2 * K, seed=0)
    with pytest.raises(InvalidArgumentError, match="stage 2 is float64"):
        cascade.cascade_to_bytes(_two_stage_model(net))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parameter_is_not_written(tmp_path, bad):
    model = _two_stage_model(random_net(6))
    model.stages[1].params[0]["w"].flat[2] = bad
    with pytest.raises(InvalidArgumentError, match=r"stage 2: layer 0 \(conv\) has non-finite"):
        cascade.cascade_to_bytes(model)
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        cascade.save_cascade(model, tmp_path / "model.bin")
    assert not (tmp_path / "model.bin").exists()


def test_save_to_a_directory_is_bad_input_naming_it(tmp_path):
    with pytest.raises(InvalidArgumentError, match=f"cannot write model file {re.escape(str(tmp_path))}: "):
        cascade.save_cascade(_two_stage_model(random_net(6)), tmp_path)


def _header(data_):
    n = len(cascade.CASCADE_MAGIC)
    return json.loads(data_[n + 8 : n + 8 + int.from_bytes(data_[n : n + 8], "little")])


def _params(model):
    """Every stage's parameters as little-endian float32, in stage and layer order."""
    return b"".join(p[key].astype("<f4").tobytes() for net in model.stages
                    for p in net.params if p is not None for key in ("w", "b"))


def _pack(header, model):
    """A cascade file with this header and model's parameters."""
    return container.pack_header(cascade.CASCADE_MAGIC, header) + _params(model)


def test_cascade_file_is_one_header_then_float32_parameters():
    every_kind = [nn.Conv(3, 3), nn.ReLU(), nn.LRN(), nn.MaxPool(2), nn.FullyConnected(5),
                  nn.Dropout(0.6)]
    model = _two_stage_model(tiny_stage_config(hidden=every_kind, seed=3).build_network(2 * K))
    data_ = cascade.cascade_to_bytes(model)
    header = _header(data_)
    assert header["format_version"] == cascade.CASCADE_FORMAT_VERSION == 2
    assert header["stages"] == [[nn.spec_to_dict(s) for s in net.layers] for net in model.stages]
    assert data_ == _pack(header, model)
    loaded = cascade.cascade_from_bytes(data_)
    assert loaded.stages[1].layers == [*every_kind, nn.FullyConnected(2 * K)]
    assert cascade.cascade_to_bytes(loaded) == data_


@pytest.mark.parametrize("key", ["format_version", "sigma", "input_size", "tree", "stages", "stats"])
def test_cascade_missing_header_key_rejected(key):
    model = _two_stage_model(random_net(6))
    header = _header(cascade.cascade_to_bytes(model))
    del header[key]
    with pytest.raises(InvalidArgumentError, match="malformed cascade header"):
        cascade.cascade_from_bytes(_pack(header, model))


@pytest.mark.parametrize("bad_spec", [
    {"kind": "pool"},  # unknown kind
    {"kind": "fc"},  # a field missing
    {"kind": "fc", "units": 2 * K, "bias": 1},  # an unknown field
    {"kind": "fc", "units": 0},  # out of range
    {"kind": "fc", "units": 2.0 * K},  # not an integer
    {"kind": "fc", "units": 2 * K + 1},  # does not chain to 2k outputs
    {"kind": "conv", "filters": 1, "size": 20},  # larger than the 12x12 input
    "fc",  # not an object
], ids=["unknown_kind", "missing_field", "unknown_field", "out_of_range", "not_an_integer",
        "wrong_output_size", "filter_too_large", "not_an_object"])
def test_cascade_bad_layer_spec_names_its_stage(bad_spec):
    model = _two_stage_model(zeroed_net())
    header = _header(cascade.cascade_to_bytes(model))
    header["stages"][1] = [bad_spec]
    with pytest.raises(InvalidArgumentError, match="stage 2"):
        cascade.cascade_from_bytes(_pack(header, model))


@pytest.mark.parametrize("key, value, message", [
    ("sigma", 0, "sigma"),
    ("sigma", "1.0", "sigma"),
    ("input_size", [INPUT[0] * INPUT[1]], "input_size"),  # fully connected stages would load
    ("input_size", [INPUT[0], INPUT[1], 0], "input size must be >= 1"),
    ("input_size", [-4, -4, 1], "input size must be >= 1"),  # would fail only in crop_resample
    ("stats", [None], "align"),
], ids=["sigma_zero", "sigma_text", "input_size_flat", "input_size_no_channel",
        "input_size_negative", "stats_short"])
def test_cascade_bad_header_value_rejected(key, value, message):
    model = cascade.CascadeModel([zeroed_net(1), zeroed_net(2)], [None, _delta_stats((0.0, 0.0))],
                                 1.0, TREE, INPUT)
    header = _header(cascade.cascade_to_bytes(model))
    header[key] = value
    with pytest.raises(InvalidArgumentError, match=message):
        cascade.cascade_from_bytes(_pack(header, model))


@pytest.mark.parametrize("consts, message", [
    ({"k_const": 0, "alpha": 0}, "LRN needs"),  # predict divided by zero
    ({"k_const": -2}, "LRN needs"),
    ({"beta": float("nan")}, "LRN needs"),
    ({"alpha": -1}, "LRN needs"),  # large activations would turn the scale negative
    ({"alpha": 10**400}, "malformed layers"),  # beyond the float range
], ids=["k_zero", "k_negative", "beta_nan", "alpha_negative", "alpha_huge_int"])
def test_cascade_bad_lrn_constants_rejected(consts, message):
    hidden = [nn.Conv(3, 3), nn.ReLU(), nn.LRN()]
    model = _two_stage_model(tiny_stage_config(hidden=hidden, seed=3).build_network(2 * K))
    header = _header(cascade.cascade_to_bytes(model))
    header["stages"][1][2].update(consts)
    with pytest.raises(InvalidArgumentError, match=f"stage 2: {message}"):
        cascade.cascade_from_bytes(_pack(header, model))


def test_cascade_refinement_without_torso_pair_rejected():
    # refinement crops are sized by the torso diameter, so such a file could not predict
    model = _two_stage_model(zeroed_net())
    header = _header(cascade.cascade_to_bytes(model))
    header["tree"]["torso_pairs"] = []
    with pytest.raises(InvalidArgumentError, match="torso pair"):
        cascade.cascade_from_bytes(_pack(header, model))
    one_stage = cascade.CascadeModel(model.stages[:1], [None], 1.0, TREE, INPUT)
    header = _header(cascade.cascade_to_bytes(one_stage))
    header["tree"]["torso_pairs"] = []
    assert cascade.cascade_from_bytes(_pack(header, one_stage)).tree.torso_pairs == []


@pytest.mark.parametrize("version", [1, 3, "2"], ids=["1", "3", "text_2"])
def test_cascade_other_format_version_rejected(version):
    model = _two_stage_model(random_net(6))
    header = _header(cascade.cascade_to_bytes(model))
    header["format_version"] = version
    with pytest.raises(InvalidArgumentError, match="unsupported format version"):
        cascade.cascade_from_bytes(_pack(header, model))


def test_cascade_bad_magic():
    with pytest.raises(InvalidArgumentError, match="bad magic"):
        cascade.cascade_from_bytes(b"PCNET\n" + b"\x00" * 32)


@pytest.mark.parametrize("data_", [
    cascade.CASCADE_MAGIC + (5).to_bytes(8, "little") + b"{not}",  # bad JSON
    cascade.CASCADE_MAGIC + (2).to_bytes(8, "little") + b"[]",  # header is not an object
], ids=["bad_json", "not_an_object"])
def test_cascade_malformed_header_rejected(data_):
    with pytest.raises(InvalidArgumentError, match="header"):
        cascade.cascade_from_bytes(data_)


def _fuzz_cascade_bytes():
    """A two-stage cascade of tiny nets, so that most bits are header bits."""
    config = cascade.StageConfig(sigma=1.0, input_size=(4, 4, 1),
                                 hidden=[nn.Conv(1, 3), nn.ReLU()])
    nets = [config.build_network(2 * K) for _ in range(2)]
    stats = _delta_stats((0.5, -0.25))
    model = cascade.CascadeModel(nets, [None, stats], 1.0, TREE, (4, 4, 1))
    return cascade.cascade_to_bytes(model)


CASCADE_BYTES = _fuzz_cascade_bytes()


def test_cascade_declaring_millions_of_joints_fails_without_allocating_for_them():
    # a few hundred bytes with k = 3 million: the tree's cycle check once
    # allocated about 36 B per declared joint before the file failed as truncated
    k = 3_000_000
    header = {"format_version": cascade.CASCADE_FORMAT_VERSION, "sigma": 1.0,
              "input_size": [1, 1, 1], "stats": [None], "stages": [[{"kind": "fc", "units": 2 * k}]],
              "tree": {"k": k, **{name: [list(p) for p in getattr(TREE, name)]
                                  for name in cascade._TREE_PAIRS}}}
    data_ = container.pack_header(cascade.CASCADE_MAGIC, header)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError, match="truncated"):
            cascade.cascade_from_bytes(data_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cascade_parameter_sizes_do_not_wrap():
    with pytest.raises(InvalidArgumentError, match="truncated"):
        cascade.cascade_from_bytes(wrapping_size_model())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(CASCADE_BYTES) - 1))
def test_truncated_cascade_file_rejected(cut):
    with pytest.raises(InvalidArgumentError):
        cascade.cascade_from_bytes(CASCADE_BYTES[:cut])


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=32))
def test_extended_cascade_file_rejected(extra):
    with pytest.raises(InvalidArgumentError):
        cascade.cascade_from_bytes(CASCADE_BYTES + extra)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8 * len(CASCADE_BYTES) - 1))
def test_bit_flipped_cascade_file_loads_or_is_rejected(bit):
    data_ = bytearray(CASCADE_BYTES)
    data_[bit // 8] ^= 1 << (bit % 8)
    try:
        model = cascade.cascade_from_bytes(bytes(data_))
    except InvalidArgumentError:
        return
    # a flip that still parses (a parameter, a statistic) gives a consistent model
    assert cascade.cascade_from_bytes(cascade.cascade_to_bytes(model)).num_stages == 2


def test_cascade_requires_stats_for_refinement():
    with pytest.raises(InvalidArgumentError):
        cascade.CascadeModel([random_net(0), random_net(1)], [None, None], 1.0, TREE, INPUT)

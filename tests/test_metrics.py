import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecascade import metrics
from posecascade.errors import InvalidArgumentError
from posecascade.geometry import PoseTree

from conftest import make_pose
from oracle import naive_counts

# 4 joints, limbs (0,1) and (2,3), torso pair (0,3)
TREE = PoseTree(4, limbs=[(0, 1), (2, 3)], torso_pairs=[(0, 3)])


def _shift_pose(pose, offsets):
    return make_pose(pose.joints + np.asarray(offsets, dtype=float), pose.mask)


GT = make_pose([(0.0, 0.0), (10.0, 0.0), (0.0, 20.0), (8.0, 26.0)])


def test_pcp_exact_predictions_are_perfect():
    r = metrics.pcp([GT], [GT], TREE)[0]
    assert np.array_equal(r.rates, [1.0, 1.0])
    assert np.array_equal(r.valid, [1, 1])


def test_pcp_boundary_is_inclusive():
    # limb (0,1) has length 10; move both endpoints by exactly 0.5 * L = 5
    pred = make_pose([(0.0, 5.0), (10.0, 5.0), (0.0, 20.0), (8.0, 26.0)])
    r = metrics.pcp([pred], [GT], TREE, threshold=0.5)[0]
    assert r.rates[0] == 1.0


def test_pcp_counts_partial_detection():
    # first limb detected, second missed
    pred = make_pose([(0.0, 0.0), (10.0, 0.0), (0.0, 40.0), (8.0, 46.0)])
    r = metrics.pcp([pred], [GT], TREE)[0]
    assert r.rates.tolist() == [1.0, 0.0]
    two = metrics.pcp([GT, pred], [GT, GT], TREE)[0]
    assert two.rates.tolist() == [1.0, 0.5]


def test_pcp_excludes_unlabeled_limbs():
    gt = make_pose(GT.joints, mask=[True, False, True, True])
    r = metrics.pcp([gt], [gt], TREE)[0]
    assert r.valid.tolist() == [0, 1]
    assert r.rates[0] == 0.0  # no data, reported as 0 with valid == 0


def test_pcp_zero_length_limb_excluded_and_counted():
    gt = make_pose([(5.0, 5.0), (5.0, 5.0), (0.0, 20.0), (8.0, 26.0)])
    r = metrics.pcp([gt], [gt], TREE)[0]
    assert r.zero_length.tolist() == [1, 0]
    assert r.valid.tolist() == [0, 1]


def test_pcp_loose_contrast_example():
    # endpoint errors 0 and 0.9 L: loose mean 0.45 L detected, strict not
    L = 10.0
    pred = make_pose([(0.0, 0.0), (10.0, 0.9 * L), (0.0, 20.0), (8.0, 26.0)])
    strict, loose = metrics.pcp([pred], [GT], TREE, threshold=0.5)
    assert strict.rates[0] == 0.0
    assert loose.rates[0] == 1.0


def test_pcp_loose_exact_perfect():
    assert np.array_equal(metrics.pcp([GT], [GT], TREE)[1].rates, [1.0, 1.0])


# --- pdj ------------------------------------------------------------------------


def _diam(pose):
    return float(np.linalg.norm(pose.joints[0] - pose.joints[3]))


def test_pdj_inside_fraction_detected():
    d = _diam(GT)
    pred = _shift_pose(GT, [(0.19 * d, 0)] + [(0, 0)] * 3)
    r = metrics.pdj_curve([pred], [GT], TREE, [0.2])
    assert r.rates[0][0] == 1.0


def test_pdj_zero_error_any_fraction():
    r = metrics.pdj_curve([GT], [GT], TREE, [1e-9])
    assert np.array_equal(r.rates[0], np.ones(4))


def test_pdj_boundary_inclusive():
    d = _diam(GT)
    pred = _shift_pose(GT, [(0.2 * d, 0)] + [(0, 0)] * 3)
    r = metrics.pdj_curve([pred], [GT], TREE, [0.2])
    assert r.rates[0][0] == 1.0


def test_pdj_zero_diameter_example_excluded():
    gt = make_pose([(5.0, 5.0), (9.0, 0.0), (0.0, 20.0), (5.0, 5.0)])  # torso pair coincident
    r = metrics.pdj_curve([gt], [gt], TREE, [0.2])
    assert r.excluded_examples == 1
    assert r.valid.tolist() == [0, 0, 0, 0]


def test_pdj_curve_values():
    d = _diam(GT)
    pred = _shift_pose(GT, [(0.15 * d, 0)] + [(0, 0)] * 3)
    curve = metrics.pdj_curve([pred], [GT], TREE, [0.1, 0.2])
    assert curve.rates[:, 0].tolist() == [0.0, 1.0]


def test_pdj_curve_monotone_and_empty():
    rng = np.random.default_rng(0)
    preds, gts = [], []
    for _ in range(6):
        gts.append(make_pose(rng.uniform(0, 30, (4, 2))))
        preds.append(make_pose(gts[-1].joints + rng.normal(0, 3, (4, 2))))
    curve = metrics.pdj_curve(preds, gts, TREE, [0.05, 0.1, 0.2, 0.35, 0.5])
    assert np.all(np.diff(curve.rates, axis=0) >= 0)
    empty = metrics.pdj_curve(preds, gts, TREE, [])
    assert empty.rates.shape == (0, 4)


@pytest.mark.parametrize("fractions", [[-0.1, 0.2], [np.nan, 0.2], [0.2, np.inf]],
                         ids=["negative", "nan", "inf"])
def test_pdj_curve_rejects_bad_fraction(fractions):
    with pytest.raises(InvalidArgumentError, match="fractions"):
        metrics.pdj_curve([GT], [GT], TREE, fractions)


@pytest.mark.parametrize("threshold", [-1.0, np.nan, np.inf])
def test_pcp_rejects_bad_threshold(threshold):
    with pytest.raises(InvalidArgumentError, match="threshold"):
        metrics.pcp([GT], [GT], TREE, threshold)
    assert metrics.pcp([GT], [GT], TREE, 0.0)[0].rates.tolist() == [1.0, 1.0]


def test_pdj_mean_rates_skip_joints_without_labels():
    mask = np.array([True, True, False, True])  # no example labels joint 2
    gt = make_pose(GT.joints, mask)
    pred = _shift_pose(gt, [(0.15 * _diam(GT), 0)] + [(0, 0)] * 3)
    curve = metrics.pdj_curve([pred], [gt], TREE, [0.1, 0.2])
    assert curve.valid.tolist() == [1, 1, 0, 1]
    assert curve.mean_rates().tolist() == [2 / 3, 1.0]
    coincident = make_pose([(5.0, 5.0), (9.0, 0.0), (0.0, 20.0), (5.0, 5.0)])  # no joint counts
    assert metrics.pdj_curve([coincident], [coincident], TREE, [0.1]).mean_rates().tolist() == [0.0]
    assert metrics.pdj_curve([pred], [gt], TREE, []).mean_rates().shape == (0,)


def test_mean_px_error_counts_every_labeled_joint():
    # the zero-diameter example, which PDJ excludes, still counts its labeled
    # joints; its unlabeled joint 1 does not
    zero_diam = make_pose([(5.0, 5.0), (9.0, 0.0), (0.0, 20.0), (5.0, 5.0)], [True, False, True, True])
    preds = [_shift_pose(GT, [(3.0, 4.0)] * 4), _shift_pose(zero_diam, [(0.0, 1.0)] * 4)]
    curve = metrics.pdj_curve(preds, [GT, zero_diam], TREE, [0.2])
    assert curve.excluded_examples == 1
    assert curve.valid.tolist() == [1, 1, 1, 1]
    assert curve.mean_px_error == (4 * 5.0 + 3 * 1.0) / 7
    unlabeled = make_pose(GT.joints, [False] * 4)  # no torso pair, no joint
    report = metrics.make_report([GT], [unlabeled], TREE, ["a", "b", "c", "d"], fractions=[0.2])
    assert np.isnan(report.pdj.mean_px_error)
    assert report.json_dict()["mean_px_error"] is None
    assert "mean_px_error nan\n" in report.text_table()


# --- invariants ------------------------------------------------------------------


@given(seed=st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_loose_at_least_strict(seed):
    rng = np.random.default_rng(seed)
    gts = [make_pose(rng.uniform(0, 40, (4, 2))) for _ in range(4)]
    preds = [make_pose(g.joints + rng.normal(0, 4, (4, 2))) for g in gts]
    strict, loose = metrics.pcp(preds, gts, TREE)
    assert np.all(loose.rates >= strict.rates)


def test_scale_invariance():
    rng = np.random.default_rng(5)
    gts = [make_pose(rng.uniform(0, 40, (4, 2))) for _ in range(5)]
    preds = [make_pose(g.joints + rng.normal(0, 3, (4, 2))) for g in gts]
    base_pcp = metrics.pcp(preds, gts, TREE)[0].rates
    base_pdj = metrics.pdj_curve(preds, gts, TREE, [0.25]).rates[0]
    s = 7.3
    gts2 = [make_pose(g.joints * s) for g in gts]
    preds2 = [make_pose(p.joints * s) for p in preds]
    assert np.array_equal(metrics.pcp(preds2, gts2, TREE)[0].rates, base_pcp)
    assert np.array_equal(metrics.pdj_curve(preds2, gts2, TREE, [0.25]).rates[0], base_pdj)


# --- brute-force recount oracle ---------------------------------------------------


def _random_set(rng, n, quarter_pixel):
    gts, preds = [], []
    for _ in range(n):
        mask = rng.random(4) < 0.85
        mask[0] = mask[3] = True  # keep the torso measurable
        if quarter_pixel:  # a coarse grid, so many errors land exactly on the thresholds
            joints = rng.integers(0, 9, (4, 2)) / 4.0
            pred = joints + rng.integers(-3, 4, (4, 2)) / 4.0
        else:
            joints = rng.uniform(0, 50, (4, 2))
            pred = joints + rng.normal(0, 5, (4, 2))
        gts.append(make_pose(joints, mask))
        preds.append(make_pose(pred))
    return preds, gts


def _edge_cases():
    """A zero-length limb, no labeled torso pair, and a zero diameter."""
    zero_limb = make_pose([(5.0, 5.0), (5.0, 5.0), (0.0, 20.0), (8.0, 26.0)])
    no_torso = make_pose(GT.joints, mask=[False, True, True, True])
    zero_diam = make_pose([(5.0, 5.0), (9.0, 0.0), (0.0, 20.0), (5.0, 5.0)])
    gts = [zero_limb, no_torso, zero_diam]
    preds = [_shift_pose(g, [(0.5, 0.25)] * 4) for g in gts]
    return preds, gts


def test_matches_naive_recount():
    # continuous coordinates, quarter-pixel ones (errors exactly on the
    # thresholds) with the edge cases appended, and the empty set
    for seed, n, quarter_pixel in [(42, 10, False), (7, 40, True), (8, 40, True), (9, 0, True)]:
        preds, gts = _random_set(np.random.default_rng(seed), n, quarter_pixel)
        if n:
            edge_preds, edge_gts = _edge_cases()
            preds, gts = preds + edge_preds, gts + edge_gts
        for threshold, fraction in [(0.5, 0.3), (0.25, 0.25), (0.5, 0.5)]:
            strict, loose = metrics.pcp(preds, gts, TREE, threshold)
            joint = metrics.pdj_curve(preds, gts, TREE, [fraction])
            det_s, det_l, valid, jdet, jvalid = naive_counts(preds, gts, TREE, threshold, fraction)
            assert strict.detected.tolist() == det_s
            assert loose.detected.tolist() == det_l
            assert strict.valid.tolist() == loose.valid.tolist() == valid
            assert joint.detected[0].tolist() == jdet
            assert joint.valid.tolist() == jvalid


# --- report ----------------------------------------------------------------------


def test_report_tables():
    report = metrics.make_report([GT], [GT], TREE, ["a", "b", "c", "d"],
                                 fractions=(0.1, 0.2))
    text = report.text_table()
    assert "a-b" in text and "c-d" in text
    d = report.json_dict()
    assert d["pdj_rates"] == [[1.0] * 4, [1.0] * 4]
    assert d["pcp_strict"] == [1.0, 1.0]
    assert all(0.0 <= r <= 1.0 for row in d["pdj_rates"] for r in row)
    assert d["mean_px_error"] == 0.0
    assert text.endswith("excluded_examples 0\nmean_px_error 0.0000\n")

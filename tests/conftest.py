import numpy as np
import pytest

from posecascade.geometry import PoseTree, PoseVector


@pytest.fixture
def tiny_tree():
    # 4 joints: 0-1 and 2-3 limbs, torso pair (0, 3), mirror swaps (0,1)/(2,3)
    return PoseTree(4, limbs=[(0, 1), (2, 3)], torso_pairs=[(0, 3)],
                    left_right_swap=[(0, 1), (2, 3)])


def make_pose(points, mask=None) -> PoseVector:
    pts = np.asarray(points, dtype=float)
    if mask is None:
        mask = np.ones(len(pts), dtype=bool)
    return PoseVector(pts, np.asarray(mask, dtype=bool))

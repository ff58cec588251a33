"""Plain-loop recount of PCP and PDJ detections, shared by the metrics and acceptance tests.

It compares the way `metrics` does: a limb endpoint is detected when
err <= threshold * length, a joint when dist / diameter <= fraction. Each
distance is the square root of the sum of the two squares; on quarter-pixel
coordinates every square and sum is exact, so ties fall the same way as in
`metrics`.
"""

import math


def _dist(p, q) -> float:
    dx, dy = float(p[0] - q[0]), float(p[1] - q[1])
    return math.sqrt(dx * dx + dy * dy)


def naive_counts(preds, gts, tree, threshold, fraction):
    """(strict detected, loose detected, valid) per limb, then (detected, valid) per joint."""
    L = len(tree.limbs)
    det_s, det_l, valid = [0] * L, [0] * L, [0] * L
    for p, t in zip(preds, gts):
        for li, (a, b) in enumerate(tree.limbs):
            if not (t.mask[a] and t.mask[b]):
                continue
            length = _dist(t.joints[a], t.joints[b])
            if length == 0:
                continue
            valid[li] += 1
            ea = _dist(p.joints[a], t.joints[a])
            eb = _dist(p.joints[b], t.joints[b])
            det_s[li] += int(ea <= threshold * length and eb <= threshold * length)
            det_l[li] += int((ea + eb) / 2 <= threshold * length)
    jdet, jvalid = [0] * tree.k, [0] * tree.k
    for p, t in zip(preds, gts):
        ds = [_dist(t.joints[a], t.joints[b]) for a, b in tree.torso_pairs
              if t.mask[a] and t.mask[b]]
        if not ds or sum(ds) / len(ds) == 0:
            continue
        diam = sum(ds) / len(ds)
        for j in range(tree.k):
            if t.mask[j]:
                jvalid[j] += 1
                jdet[j] += int(_dist(p.joints[j], t.joints[j]) / diam <= fraction)
    return det_s, det_l, valid, jdet, jvalid

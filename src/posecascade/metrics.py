"""Limb and joint detection-rate metrics.

PCP scores limbs: a limb counts as detected when both predicted endpoints are
within a fraction of that limb's ground-truth length (the loose variant
thresholds the mean of the two endpoint errors instead). PDJ scores joints
against a fraction of the ground-truth torso diameter, so every joint shares
one distance scale. All comparisons are inclusive (<=), and both metrics are
invariant to scaling all coordinates by a common factor.

Missing data policy: a limb with an unlabeled ground-truth endpoint is left
out of that limb's denominator; zero-length limbs and examples without a
usable torso diameter are excluded and counted in the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, MissingTorsoError, ShapeError
from .geometry import PoseTree, pose_diameter


def _check_aligned(preds, truths, k: int):
    if len(preds) != len(truths):
        raise ShapeError(f"{len(preds)} predictions vs {len(truths)} ground truths")
    for p in list(preds) + list(truths):
        if p.k != k:
            raise ShapeError(f"pose has {p.k} joints, tree expects {k}")


@dataclass
class LimbRates:
    rates: np.ndarray  # per limb, detected / valid (0.0 when valid == 0)
    detected: np.ndarray  # int per limb
    valid: np.ndarray  # int per limb; examples with both GT endpoints labeled
    zero_length: np.ndarray  # int per limb; excluded degenerate GT limbs


@dataclass
class PdjCurve:
    fractions: list[float]
    rates: np.ndarray  # (len(fractions), k)
    detected: np.ndarray  # (len(fractions), k) int
    valid: np.ndarray  # per joint
    excluded_examples: int  # no labeled torso pair or zero diameter

    def mean_rates(self) -> np.ndarray:
        """Average at each fraction over the joints some example labels (0.0 if none)."""
        return np.array([_mean(r, self.valid) for r in self.rates])


def _endpoint_errors(preds, truths, tree):
    """Per-example endpoint distances and limb lengths; NaN marks unusable."""
    n, L = len(truths), len(tree.limbs)
    err_a = np.full((n, L), np.nan)
    err_b = np.full((n, L), np.nan)
    length = np.full((n, L), np.nan)
    for e, (p, t) in enumerate(zip(preds, truths)):
        for l, (a, b) in enumerate(tree.limbs):
            if not (t.mask[a] and t.mask[b]):
                continue
            length[e, l] = np.linalg.norm(t.joints[a] - t.joints[b])
            err_a[e, l] = np.linalg.norm(p.joints[a] - t.joints[a])
            err_b[e, l] = np.linalg.norm(p.joints[b] - t.joints[b])
    return err_a, err_b, length


def _limb_rates(hit: np.ndarray, labeled: np.ndarray, zero_len: np.ndarray) -> LimbRates:
    valid = (labeled & ~zero_len).sum(axis=0).astype(int)
    detected = (hit & labeled & ~zero_len).sum(axis=0).astype(int)
    rates = np.divide(detected, valid, out=np.zeros(len(valid)), where=valid > 0)
    return LimbRates(rates, detected, valid, (labeled & zero_len).sum(axis=0).astype(int))


def _pcp(preds, truths, tree: PoseTree, limb_hit) -> LimbRates:
    """Limb rates, where limb_hit(err_a, err_b, length) marks the detected limbs."""
    _check_aligned(preds, truths, tree.k)
    err_a, err_b, length = _endpoint_errors(preds, truths, tree)
    labeled = ~np.isnan(length)
    zero_len = labeled & (length == 0.0)
    with np.errstate(invalid="ignore"):
        hit = limb_hit(err_a, err_b, length)
    return _limb_rates(hit, labeled, zero_len)


def pcp(preds, truths, tree: PoseTree, threshold: float = 0.5) -> LimbRates:
    """Strict percentage of correct parts: both endpoint errors <= threshold * limb length."""
    return _pcp(preds, truths, tree,
                lambda a, b, length: (a <= threshold * length) & (b <= threshold * length))


def pcp_loose(preds, truths, tree: PoseTree, threshold: float = 0.5) -> LimbRates:
    """Loose variant: the mean of the two endpoint errors is thresholded."""
    return _pcp(preds, truths, tree, lambda a, b, length: 0.5 * (a + b) <= threshold * length)


def _joint_errors(preds, truths, tree):
    """Per-example joint errors scaled by the GT torso diameter; NaN = unusable."""
    n, k = len(truths), tree.k
    scaled = np.full((n, k), np.nan)
    excluded = 0
    for e, (p, t) in enumerate(zip(preds, truths)):
        try:
            diam = pose_diameter(t, tree)
        except MissingTorsoError:
            excluded += 1
            continue
        if diam <= 0.0:
            excluded += 1
            continue
        d = np.linalg.norm(p.joints - t.joints, axis=1)
        scaled[e, t.mask] = d[t.mask] / diam
    return scaled, excluded


def pdj_curve(preds, truths, tree: PoseTree, fractions) -> PdjCurve:
    """Percent of detected joints, per joint, at every fraction: a joint is
    detected when its error is <= fraction * torso diameter. Rates are
    non-decreasing in the fraction."""
    fractions = [float(f) for f in fractions]
    if any(f < 0 for f in fractions):
        raise InvalidArgumentError(f"fractions must be >= 0, got {fractions}")
    _check_aligned(preds, truths, tree.k)
    scaled, excluded = _joint_errors(preds, truths, tree)
    labeled = ~np.isnan(scaled)
    valid = labeled.sum(axis=0).astype(int)
    detected = np.zeros((len(fractions), tree.k), dtype=int)
    rates = np.zeros((len(fractions), tree.k))
    with np.errstate(invalid="ignore"):
        for fi, f in enumerate(fractions):
            detected[fi] = ((scaled <= f) & labeled).sum(axis=0)
            rates[fi] = np.divide(detected[fi], valid, out=np.zeros(tree.k), where=valid > 0)
    return PdjCurve(fractions, rates, detected, valid, excluded)


@dataclass
class EvalReport:
    """Everything one evaluation run produced, ready to format or serialize."""

    n_examples: int
    pcp_threshold: float
    limb_names: list[str]
    pcp_strict: LimbRates
    pcp_loose: LimbRates
    joint_names: list[str]
    pdj: PdjCurve

    def text_table(self) -> str:
        lines = [f"examples {self.n_examples}"]
        lines.append(f"# PCP at {self.pcp_threshold} (strict / loose)")
        lines.append("limb strict loose valid zero_length")
        for i, name in enumerate(self.limb_names):
            lines.append(
                f"{name} {self.pcp_strict.rates[i]:.4f} {self.pcp_loose.rates[i]:.4f} "
                f"{self.pcp_strict.valid[i]} {self.pcp_strict.zero_length[i]}"
            )
        lines.append(
            f"average {_mean(self.pcp_strict.rates, self.pcp_strict.valid):.4f} "
            f"{_mean(self.pcp_loose.rates, self.pcp_loose.valid):.4f}"
        )
        lines.append("# PDJ (rows: joints, columns: fractions)")
        lines.append("joint " + " ".join(f"{f:g}" for f in self.pdj.fractions) + " valid")
        for j, name in enumerate(self.joint_names):
            row = " ".join(f"{self.pdj.rates[fi, j]:.4f}" for fi in range(len(self.pdj.fractions)))
            lines.append(f"{name} {row} {self.pdj.valid[j]}")
        mean_row = " ".join(f"{m:.4f}" for m in self.pdj.mean_rates())
        lines.append(f"average {mean_row}")
        lines.append(f"excluded_examples {self.pdj.excluded_examples}")
        return "\n".join(lines) + "\n"

    def json_dict(self) -> dict:
        return {
            "n_examples": self.n_examples,
            "pcp_threshold": self.pcp_threshold,
            "limbs": self.limb_names,
            "pcp_strict": self.pcp_strict.rates.tolist(),
            "pcp_loose": self.pcp_loose.rates.tolist(),
            "pcp_valid": self.pcp_strict.valid.tolist(),
            "pcp_zero_length": self.pcp_strict.zero_length.tolist(),
            "joints": self.joint_names,
            "pdj_fractions": self.pdj.fractions,
            "pdj_rates": self.pdj.rates.tolist(),
            "pdj_mean": self.pdj.mean_rates().tolist(),
            "pdj_valid": self.pdj.valid.tolist(),
            "pdj_excluded_examples": self.pdj.excluded_examples,
        }


def _mean(rates: np.ndarray, valid: np.ndarray) -> float:
    keep = valid > 0
    return float(rates[keep].mean()) if keep.any() else 0.0


def make_report(
    preds,
    truths,
    tree: PoseTree,
    joint_names: list[str],
    pcp_threshold: float = 0.5,
    fractions=(0.1, 0.2, 0.3, 0.4, 0.5),
) -> EvalReport:
    limb_names = [f"{joint_names[a]}-{joint_names[b]}" for a, b in tree.limbs]
    return EvalReport(
        n_examples=len(truths),
        pcp_threshold=pcp_threshold,
        limb_names=limb_names,
        pcp_strict=pcp(preds, truths, tree, pcp_threshold),
        pcp_loose=pcp_loose(preds, truths, tree, pcp_threshold),
        joint_names=list(joint_names),
        pdj=pdj_curve(preds, truths, tree, fractions),
    )

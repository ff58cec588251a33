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

from .errors import InvalidArgumentError, ShapeError
# pose_diameter is unused here; the benchmark tracer (perfbench/spans.py)
# patches it by name
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
    mean_px_error: float  # over every labeled joint, excluded examples too; NaN (JSON null) if none

    def mean_rates(self) -> np.ndarray:
        """Average at each fraction over the joints some example labels (0.0 if none)."""
        return np.array([_mean(r, self.valid) for r in self.rates])


def _stack(preds, truths, tree: PoseTree):
    """The n truths as an (n, k, 2) array, the (n, k) joint errors
    |pred - truth| and the (n, k) mask of labeled truth joints."""
    _check_aligned(preds, truths, tree.k)
    k = tree.k
    pred = np.array([p.joints for p in preds]).reshape(-1, k, 2)
    truth = np.array([t.joints for t in truths]).reshape(-1, k, 2)
    labeled = np.array([t.mask for t in truths], dtype=bool).reshape(-1, k)
    return truth, np.linalg.norm(pred - truth, axis=2), labeled


def _rates(hit: np.ndarray, counted: np.ndarray):
    """(rates, detected, valid) per column of the (n, m) mask `counted`, where
    `hit` is (n, m) or a stack (..., n, m) of such masks."""
    valid = counted.sum(axis=0)
    detected = (hit & counted).sum(axis=-2)
    return np.divide(detected, valid, out=np.zeros(detected.shape), where=valid > 0), detected, valid


def check_scales(name: str, *values) -> list[float]:
    """The values as floats, each a PCP threshold or PDJ fraction (a multiple
    of a length); InvalidArgumentError naming `name` if one is negative or not finite."""
    values = [float(v) for v in values]
    if not all(0 <= v < np.inf for v in values):  # False for NaN
        raise InvalidArgumentError(f"{name} must be finite and >= 0, got {values}")
    return values


def pcp(preds, truths, tree: PoseTree, threshold: float = 0.5) -> tuple[LimbRates, LimbRates]:
    """Percentage of correct parts, (strict, loose), from one error pass.

    Strict: both endpoint errors <= threshold * limb length. Loose: the mean
    of the two endpoint errors <= threshold * limb length.
    """
    check_scales("PCP threshold", threshold)
    truth, err, labeled = _stack(preds, truths, tree)
    a, b = np.array(tree.limbs, dtype=int).reshape(-1, 2).T
    length = np.linalg.norm(truth[:, a] - truth[:, b], axis=2)
    both = labeled[:, a] & labeled[:, b]
    zero_len = both & (length == 0.0)
    counted = both & ~zero_len
    err_a, err_b, bound = err[:, a], err[:, b], threshold * length
    return (LimbRates(*_rates((err_a <= bound) & (err_b <= bound), counted), zero_len.sum(axis=0)),
            LimbRates(*_rates(0.5 * (err_a + err_b) <= bound, counted), zero_len.sum(axis=0)))


def _diameters(truth: np.ndarray, labeled: np.ndarray, tree: PoseTree) -> np.ndarray:
    """The (n,) torso diameters of the stacked truths, as geometry.pose_diameter
    computes them, NaN where a truth has no labeled torso pair or a zero
    diameter. Each pair's length is the same BLAS dot np.linalg.norm takes of
    one 2-vector, so the diameters are pose_diameter's to the bit."""
    a, b = np.array(tree.torso_pairs, dtype=int).reshape(-1, 2).T
    d = truth[:, a] - truth[:, b]
    both = labeled[:, a] & labeled[:, b]
    with np.errstate(over="ignore"):  # an inf length, as np.linalg.norm gives without a warning
        length = np.where(both, np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0]), 0.0)
    count = both.sum(axis=1)
    diam = np.divide(length.sum(axis=1), count, out=np.full(len(count), np.nan), where=count > 0)
    return np.where(diam > 0.0, diam, np.nan)


def pdj_curve(preds, truths, tree: PoseTree, fractions) -> PdjCurve:
    """Percent of detected joints, per joint, at every fraction: a joint is
    detected when its error is <= fraction * torso diameter. Rates are
    non-decreasing in the fraction. The same error pass gives the mean pixel
    error of every labeled joint, which needs no diameter."""
    fractions = check_scales("fractions", *fractions)
    truth, err, labeled = _stack(preds, truths, tree)
    mean_px_error = float(err[labeled].mean()) if labeled.any() else np.nan
    diam = _diameters(truth, labeled, tree)
    scaled = err / diam[:, None]
    counted = labeled & ~np.isnan(scaled)  # NaN: no usable diameter
    rates, detected, valid = _rates(scaled <= np.array(fractions)[:, None, None], counted)
    return PdjCurve(fractions, rates, detected, valid, int(np.isnan(diam).sum()), mean_px_error)


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
        lines.append(f"mean_px_error {self.pdj.mean_px_error:.4f}")
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
            "mean_px_error": None if np.isnan(self.pdj.mean_px_error) else self.pdj.mean_px_error,
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
    strict, loose = pcp(preds, truths, tree, pcp_threshold)
    return EvalReport(
        n_examples=len(truths),
        pcp_threshold=pcp_threshold,
        limb_names=limb_names,
        pcp_strict=strict,
        pcp_loose=loose,
        joint_names=list(joint_names),
        pdj=pdj_curve(preds, truths, tree, fractions),
    )

"""Evaluation metrics and split-level aggregation.

Heatmap metrics (KL divergence, histogram intersection, normalized scanpath
saliency) follow the MIT saliency-benchmark convention on sum-normalized
maps with eps = 1e-12. Segmentation uses per-class IoU accumulated as global
intersection/union counts over a whole split, plus the harmonic mean of the
seen and unseen mIoU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DENSE_BINARY, AffordanceTarget
from .decoder import Prediction

EPS = 1e-12


def _normalize_sum(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.min() < 0:
        raise ValueError("map has negative values")
    total = m.sum()
    if total <= 0:
        raise ValueError("all-zero map")
    return m / total


def kld(pred: np.ndarray, gt: np.ndarray) -> float:
    """KL divergence of the ground truth from the prediction (asymmetric;
    both maps sum-normalized first)."""
    p = _normalize_sum(pred)
    g = _normalize_sum(gt)
    return float(np.sum(g * np.log(g / (p + EPS) + EPS)))


def sim(pred: np.ndarray, gt: np.ndarray) -> float:
    """Histogram intersection of the two sum-normalized maps, in [0, 1]."""
    p = _normalize_sum(pred)
    g = _normalize_sum(gt)
    return float(np.minimum(p, g).sum())


def nss(pred: np.ndarray, fixations: np.ndarray) -> float:
    """Mean standardized prediction value at fixation pixels.

    The prediction is standardized to zero mean, unit (population) std over
    all pixels; a constant prediction scores 0 by convention.
    """
    fix = np.asarray(fixations)
    if not fix.any():
        raise ValueError("empty fixation set")
    p = np.asarray(pred, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite prediction")
    std = p.std()
    if std < 1e-12:
        return 0.0
    z = (p - p.mean()) / std
    return float(z[fix.astype(bool)].mean())


def fixations_from_heatmap(channel: np.ndarray) -> np.ndarray:
    """Binarize a densified channel at half its peak."""
    peak = channel.max()
    return channel >= 0.5 * peak if peak > 0 else np.zeros_like(channel, dtype=bool)


def iou_per_class(
    pred: Prediction, gt: AffordanceTarget, threshold: float = 0.5
) -> np.ndarray:
    """Per-class IoU for a single image (NaN where the union is empty)."""
    inter, union = iou_counts(pred, gt, threshold)
    with np.errstate(invalid="ignore"):
        return np.where(union > 0, inter / np.maximum(union, 1), np.nan)


def iou_counts(pred: Prediction, gt: AffordanceTarget, threshold: float = 0.5):
    """Raw per-class intersection and union pixel counts."""
    if gt.kind != DENSE_BINARY:
        raise ValueError(f"IoU needs dense-binary ground truth, got {gt.kind!r}")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    s = pred.upsampled
    if s.shape != gt.M.shape:
        raise ValueError(f"prediction {s.shape} vs target {gt.M.shape}")
    hard = s >= threshold
    mask = gt.M >= 0.5
    inter = np.logical_and(hard, mask).sum(axis=(0, 1)).astype(np.float64)
    union = np.logical_or(hard, mask).sum(axis=(0, 1)).astype(np.float64)
    return inter, union


def miou(inter: np.ndarray, union: np.ndarray) -> float:
    """Mean IoU from accumulated counts; classes with empty union over the
    split are excluded from the mean."""
    valid = union > 0
    if not valid.any():
        return float("nan")
    return float((inter[valid] / union[valid]).mean())


def hiou(seen_miou: float, unseen_miou: float) -> float:
    """Harmonic mean of the two split scores (same unit as the inputs)."""
    if seen_miou < 0 or unseen_miou < 0:
        raise ValueError("mIoU values must be nonnegative")
    if seen_miou == 0 and unseen_miou == 0:
        return 0.0
    return 2.0 * seen_miou * unseen_miou / (seen_miou + unseen_miou)


@dataclass
class MetricsReport:
    """Per-image metric records plus split-level aggregates.

    ``aggregates`` values are None when the set was empty ("undefined").
    """

    mode: str
    items: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "count": len(self.items),
            "items": self.items,
            "aggregates": self.aggregates,
        }


def evaluate(run_item, eval_set, mode: str, class_names, threshold: float = 0.5) -> MetricsReport:
    """Aggregate metrics over a split, one item at a time in submission order.

    ``run_item`` maps one dataset item to (item_id, Prediction,
    AffordanceTarget, fixation stack or None); each result is scored and
    dropped before the next call. ``mode`` is "heatmap" for KLD/SIM/NSS or
    "dense" for IoU."""
    if mode not in ("heatmap", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    report = MetricsReport(mode=mode)
    inter = np.zeros(len(class_names))
    union = np.zeros_like(inter)
    for item in eval_set:
        item_id, pred, target, fixations = run_item(item)
        if mode == "heatmap":
            rec = heatmap_record(item_id, pred.upsampled, target.M, fixations)
        else:
            i, u = iou_counts(pred, target, threshold)
            inter += i
            union += u
            rec = {"id": item_id, "iou": [float(a / b) if b > 0 else None for a, b in zip(i, u)]}
        report.items.append(rec)
        del pred, target, fixations  # freed before the next run_item allocates

    if mode == "heatmap":
        report.aggregates = {}
        for key in ("kld", "sim", "nss"):
            vals = [rec[key] for rec in report.items if rec[key] is not None]
            report.aggregates[key] = float(np.mean(vals)) if vals else None
    elif not report.items:
        report.aggregates = {"per_class_iou": None, "miou": None}
    else:
        per_class = [float(a / b) if b > 0 else None for a, b in zip(inter, union)]
        report.aggregates = {
            "per_class_iou": dict(zip(class_names, per_class)),
            "miou": miou(inter, union),
        }
    return report


def evaluate_checkpoint(
    ckpt,
    manifest,
    items,
    mode: str,
    sigma: float | None = None,
    threshold: float = 0.5,
) -> MetricsReport:
    """Run the model of a trained checkpoint over manifest items.

    In heatmap mode, items whose annotation still carries keypoints use the
    raw keypoint pixels as NSS fixations; densified/mask targets fall back
    to the half-peak binarization.
    """
    from . import data, training

    table = ckpt.text_table()

    def run_item(item):
        kwargs = {} if sigma is None else {"sigma": sigma}
        loaded = data.load_item(manifest, item, **kwargs)
        pred, _ = training.forward(
            ckpt.params, ckpt.enc, table, loaded.stack, ablate=ckpt.ablate
        )
        fixations = None
        if mode == "heatmap" and item.target.get("kind") == "keypoints":
            fixations = keypoint_fixations(
                item.target["points"], loaded.target.shape, manifest.affordances
            )
        return item.item_id, pred, loaded.target, fixations

    return evaluate(run_item, items, mode, manifest.affordances, threshold)


def keypoint_fixations(points: dict, shape, affordances) -> np.ndarray:
    """Boolean H x W x N stack marking the annotated keypoint pixels; each
    point rounds to the nearest pixel, clamped into the image (``densify``
    accepts x < W, which can round to W)."""
    H, W, N = shape
    fix = np.zeros((H, W, N), dtype=bool)
    for ch, name in enumerate(affordances):
        for x0, y0 in points.get(name, []):
            row = min(max(int(round(y0)), 0), H - 1)
            col = min(max(int(round(x0)), 0), W - 1)
            fix[row, col, ch] = True
    return fix


def heatmap_record(item_id, scores: np.ndarray, gt: np.ndarray, fixations=None) -> dict:
    """KLD/SIM/NSS for one image, averaged over non-empty gt channels.

    ``fixations`` may give a boolean H x W x N stack of true fixation
    pixels (from keypoints); otherwise fixations are binarized from the gt
    heatmap at half the channel peak.
    """
    klds, sims, nsss = [], [], []
    for ch in range(gt.shape[2]):
        g = gt[:, :, ch]
        if g.max() <= 0:
            continue
        p = scores[:, :, ch]
        klds.append(kld(p, g))
        sims.append(sim(p, g))
        fix = fixations[:, :, ch] if fixations is not None else fixations_from_heatmap(g)
        if fix.any():
            nsss.append(nss(p, fix))
    return {
        "id": item_id,
        "kld": float(np.mean(klds)) if klds else None,
        "sim": float(np.mean(sims)) if sims else None,
        "nss": float(np.mean(nsss)) if nsss else None,
    }

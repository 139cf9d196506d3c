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

from . import data, decoder, fusion
from .data import DEFAULT_SIGMA, DENSE_BINARY, AffordanceTarget
from .decoder import Prediction

EPS = 1e-12


def _normalize_sum(m: np.ndarray, zero_ok: bool = False) -> np.ndarray:
    """*m* over its sum. An all-zero map raises ValueError, or with *zero_ok*
    is returned as is: the zero distribution of a saturated prediction. A map
    whose sum is not finite (a NaN or inf value, or an overflowing sum) raises
    ValueError."""
    m = np.asarray(m, dtype=np.float64)
    if m.min() < 0:
        raise ValueError("map has negative values")
    total = m.sum()
    if not np.isfinite(total):
        raise ValueError(f"map sum {total} is not finite")
    if total <= 0:
        if zero_ok:
            return m
        raise ValueError("all-zero map")
    return m / total


def _kld_normalized(p: np.ndarray, g: np.ndarray) -> float:
    # sum(g * log(g / (p + EPS) + EPS)), built in one scratch map
    t = p + EPS
    np.divide(g, t, out=t)
    t += EPS
    np.log(t, out=t)
    t *= g
    return float(np.sum(t))


def _sim_normalized(p: np.ndarray, g: np.ndarray) -> float:
    return float(np.minimum(p, g).sum())


def kld(pred: np.ndarray, gt: np.ndarray) -> float:
    """KL divergence of the ground truth from the prediction (asymmetric;
    both maps sum-normalized first). An all-zero prediction is the zero
    distribution, ``sum(g * log(g / EPS + EPS))``; an all-zero gt raises."""
    return _kld_normalized(_normalize_sum(pred, zero_ok=True), _normalize_sum(gt))


def sim(pred: np.ndarray, gt: np.ndarray) -> float:
    """Histogram intersection of the two sum-normalized maps, in [0, 1]; an
    all-zero prediction scores 0, an all-zero gt raises."""
    return _sim_normalized(_normalize_sum(pred, zero_ok=True), _normalize_sum(gt))


def nss(pred: np.ndarray, fixations: np.ndarray) -> float:
    """Mean standardized prediction value at fixation pixels.

    The prediction is standardized to zero mean, unit (population) std over
    all pixels; a constant prediction scores 0 by convention.
    """
    fix = np.asarray(fixations)
    p = np.asarray(pred, dtype=np.float64)
    if p.shape != fix.shape:
        raise ValueError(f"prediction {p.shape} vs fixations {fix.shape}")
    if not fix.any():
        raise ValueError("empty fixation set")
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite prediction")
    std = p.std()
    if std < 1e-12:
        return 0.0
    return float(((p[fix.astype(bool, copy=False)] - p.mean()) / std).mean())


def fixations_from_heatmap(channel: np.ndarray) -> np.ndarray:
    """Binarize a densified channel at half its peak."""
    peak = channel.max()
    return channel >= 0.5 * peak if peak > 0 else np.zeros_like(channel, dtype=bool)


def iou_counts(pred: Prediction, gt: AffordanceTarget, threshold: float = 0.5):
    """Raw per-class intersection and union pixel counts, exact integers
    stored as float64. A pixel is predicted where its score reaches
    *threshold*. A prediction without scores counts the logits at or above
    :func:`decoder.score_band`'s hi and squashes only those inside the band,
    which marks the same pixels. The prediction is thresholded once,
    channel-major, and counted against the target's
    :attr:`~affseg.data.AffordanceTarget.mask`, which a target builds once
    however many predictions it is scored against."""
    if gt.kind != DENSE_BINARY:
        raise ValueError(f"IoU needs dense-binary ground truth, got {gt.kind!r}")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    s = pred.logits if pred.upsampled is None else pred.upsampled
    if s.shape != gt.M.shape:
        raise ValueError(f"prediction {s.shape} vs target {gt.M.shape}")
    # contiguous for the channel-major logits of the prediction head
    s = s.transpose(2, 0, 1)
    if pred.upsampled is None:
        lo, hi = decoder.score_band(threshold)
        hard, maybe = s >= hi, s >= lo
        if np.count_nonzero(maybe) != np.count_nonzero(hard):
            band = maybe & ~hard
            hard[band] = decoder._sigmoid(s[band]) >= threshold
    else:
        hard = s >= threshold
    inter = np.array([np.count_nonzero(b) for b in hard & gt.mask], dtype=np.float64)
    union = np.array([np.count_nonzero(h) for h in hard], dtype=np.float64)
    union += gt.mask_count
    union -= inter
    return inter, union


def miou(inter: np.ndarray, union: np.ndarray) -> float | None:
    """Mean IoU from accumulated counts; classes with empty union over the
    split are excluded from the mean, and with no other class it is undefined,
    None."""
    valid = union > 0
    if not valid.any():
        return None
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
    AffordanceTarget, fixation stack or None); each result is scored, with
    ``item <id>: `` before a scoring ValueError, and dropped before the next
    call. ``mode`` is "heatmap" for KLD/SIM/NSS or "dense" for IoU."""
    if mode not in ("heatmap", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    report = MetricsReport(mode=mode)
    inter = np.zeros(len(class_names))
    union = np.zeros_like(inter)
    for item in eval_set:
        item_id, pred, target, fixations = run_item(item)
        try:
            if mode == "heatmap":
                rec = heatmap_record(item_id, pred.logits, target.M, fixations)
            else:
                i, u = iou_counts(pred, target, threshold)
                inter += i
                union += u
                rec = {"id": item_id, "iou": [float(a / b) if b > 0 else None for a, b in zip(i, u)]}
        except ValueError as exc:
            raise ValueError(f"item {item_id}: {exc}") from exc
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


# an eval run holds at most this many bytes of targets and visual
# embeddings, and at least one item
EVAL_CHUNK_BYTES = 4 << 20


@np.errstate(over="ignore", invalid="ignore")
def evaluate_checkpoint(
    ckpt,
    manifest,
    items,
    mode: str,
    sigma: float = DEFAULT_SIGMA,
    threshold: float = 0.5,
) -> MetricsReport:
    """Run the model of a trained checkpoint over manifest items. The prompts
    and the folded fusion come from the checkpoint, which builds them once.

    Consecutive items that share a grid and image size are embedded as they
    load into one B x L x C buffer of at most :data:`EVAL_CHUNK_BYTES` of
    targets and embeddings, and the decoder runs once over it; the head stays
    per item. Each result is bitwise equal to the item's own forward, and
    errors come in item order. Neither mode builds a full score map: IoU
    counts the pixel logits at the threshold's boundary logit, and
    :func:`heatmap_record` squashes only the channels it scores.

    In heatmap mode, items whose annotation still carries keypoints use the
    raw keypoint pixels as NSS fixations; densified/mask targets fall back
    to the half-peak binarization. Overflow is not warned about: the
    decoder's finiteness check, and one on each item's patch logits before
    upsampling, raise ArithmeticError naming the item.
    """
    items = list(items)
    predicted = _predictions(ckpt, manifest, items, sigma)

    def run_item(item):
        # evaluate calls this once per item, in order, as the runs yield them
        (_, target, points, _, _), pred = next(predicted)
        fixations = None
        if mode == "heatmap" and points is not None:
            fixations = keypoint_fixations(points, target.shape, manifest.affordances)
        return item.item_id, pred, target, fixations

    return evaluate(run_item, items, mode, manifest.affordances, threshold)


def _predictions(ckpt, manifest, items, sigma):
    """(entry, Prediction) per item in order, an entry being (item id, target,
    keypoints or None, grid, image size), with pixel logits only. Each
    item is embedded into the next row of its run's buffers as it loads, and
    its feature stack dropped. A run ends on a new grid or image size, on a
    full buffer, or before an item that fails to load or embed, whose error is
    raised once the run is decoded (an embedding error with ``item <id>: ``
    before it). An item whose ``target`` record equals the previous item's
    is given that item's target to share; no older target is kept."""
    run, error, last = [], None, (None, None)  # the last target record and its target
    for item in items:
        try:
            shared = last[1] if last[0] == item.target else None
            loaded = data.load_item(manifest, item, sigma=sigma, target=shared)
        except Exception as exc:
            error = exc
            break
        last = item.target, loaded.target
        s = loaded.stack
        entry = (item.item_id, loaded.target, loaded.points, s.grid, s.image_size)
        if run and entry[3:] != run[0][3:]:
            yield from _predict_run(ckpt, run, visual, cls)
            run = []
        if not run:
            L, C = len(s.last), ckpt.cfg.C
            cap = max(1, EVAL_CHUNK_BYTES // (loaded.target.M.nbytes + 8 * L * C))
            visual, cls = np.empty((cap, L, C)), np.empty((cap, len(s.cls)))
        try:
            visual[len(run)] = fusion.embed_folded(s, ckpt.folded)
        except ValueError as exc:
            error = ValueError(f"item {item.item_id}: {exc}")
            error.__cause__ = exc
            break
        cls[len(run)] = s.cls
        run.append(entry)
        del loaded, s  # a full run decodes before the next item loads
        if len(run) == len(visual):
            yield from _predict_run(ckpt, run, visual, cls)
            run = []
    if run:
        yield from _predict_run(ckpt, run, visual, cls)
    if error is not None:
        raise error


def _predict_run(ckpt, run, visual, cls, alone=False):
    """(entry, Prediction) per item of *run*: the decoder once over its rows of
    *visual* and *cls*, the head per item on its row, left unsquashed. A
    run that overflows is decoded again as runs of one, *alone*, so the first
    that overflows is named."""
    B = len(run)
    try:
        text_out = decoder.decode_cached(ckpt.text, visual[:B], cls[:B], ckpt.params.dp)[0]
    except ArithmeticError as exc:
        if alone:
            raise ArithmeticError(f"item {run[0][0]}: {exc}") from exc
        for b in range(B):
            yield from _predict_run(ckpt, run[b:b + 1], visual[b:b + 1], cls[b:b + 1], True)
        return
    # with no decoder layers the prompts pass through, shared by every item
    text_out = np.broadcast_to(text_out, (B, *text_out.shape[-2:]))
    for b, entry in enumerate(run):
        # checked at patch resolution: upsampling would turn inf * 0 into NaN
        # logits, which IoU counts as misses
        logits = visual[b] @ text_out[b].T
        if not np.isfinite(logits).all():
            raise ArithmeticError(f"item {entry[0]}: non-finite patch logits")
        pred = decoder.predict_from_logits(logits, *entry[3:], False)
        yield entry, pred
        del pred  # freed before the next item's head allocates


def keypoint_fixations(points: dict, shape, affordances) -> np.ndarray:
    """Boolean H x W x N stack marking the annotated keypoint pixels; each
    point rounds to the nearest pixel, clamped into the image (``densify``
    accepts x < W, which can round to W). The stack is a view of an
    N x H x W array, channel-major like the targets ``densify`` builds."""
    H, W, N = shape
    fix = np.zeros((N, H, W), dtype=bool)
    for ch, name in enumerate(affordances):
        for x0, y0 in points.get(name, []):
            row = min(max(int(round(y0)), 0), H - 1)
            col = min(max(int(round(x0)), 0), W - 1)
            fix[ch, row, col] = True
    return fix.transpose(1, 2, 0)


def heatmap_record(item_id, logits: np.ndarray, gt: np.ndarray, fixations=None) -> dict:
    """KLD/SIM/NSS for one image from its H x W x N pixel logits, averaged
    over non-empty gt channels; only those channels are squashed, each on its
    own slice, which is bitwise the slice of the squashed map. An all-zero
    score channel (saturated logits) is scored as the zero distribution, as
    :func:`kld`, :func:`sim` and :func:`nss` score it.

    ``fixations`` may give a boolean H x W x N stack of true fixation
    pixels (from keypoints); otherwise fixations are binarized from the gt
    heatmap at half the channel peak. Logits and fixations must have the
    gt's shape.
    """
    for name, m in (("logits", logits), ("fixations", fixations)):
        if m is not None and m.shape != gt.shape:
            raise ValueError(f"{name} {m.shape} vs gt {gt.shape}")
    klds, sims, nsss = [], [], []
    for ch in range(gt.shape[2]):
        g = gt[:, :, ch]
        if g.max() <= 0:
            continue
        p = decoder._sigmoid(logits[:, :, ch])
        p_norm, g_norm = _normalize_sum(p, zero_ok=True), _normalize_sum(g)
        klds.append(_kld_normalized(p_norm, g_norm))
        sims.append(_sim_normalized(p_norm, g_norm))
        fix = fixations[:, :, ch] if fixations is not None else fixations_from_heatmap(g)
        if fix.any():
            nsss.append(nss(p, fix))
    return {
        "id": item_id,
        "kld": float(np.mean(klds)) if klds else None,
        "sim": float(np.mean(sims)) if sims else None,
        "nss": float(np.mean(nsss)) if nsss else None,
    }

"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain loops and scalar math,
separate from the package's vectorized paths, so the two routes can
disagree when one is wrong.
"""

from __future__ import annotations

import math

import numpy as np


def central_difference(loss_fn, arrays, step=1e-5):
    """Finite-difference gradients for a list of arrays feeding loss_fn().

    Perturbs entries in place and restores them; loss_fn takes no
    arguments and reads the arrays by reference.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn()
            flat[i] = orig - step
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def max_rel_err(a: np.ndarray, n: np.ndarray, floor=1e-5) -> float:
    a = np.asarray(a, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max()) if a.size else 0.0


def sigmoid_masked_reference(x):
    """The overflow-safe sigmoid by boolean masks: 1 / (1 + exp(-x)) where
    x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def softmax_rows(S):
    out = np.zeros_like(S, dtype=np.float64)
    for r in range(S.shape[0]):
        m = max(S[r])
        e = [math.exp(v - m) for v in S[r]]
        tot = sum(e)
        out[r] = [v / tot for v in e]
    return out


def decoder_layer_reference(text, visual, cls, p, use_gate=True):
    """Scalar-math re-derivation of one decoder layer."""
    text = np.asarray(text, dtype=np.float64)
    visual = np.asarray(visual, dtype=np.float64)
    C = p.wq.shape[0]
    sq = math.sqrt(C)
    Q = text @ p.wq
    K = visual @ p.wk
    V = visual @ p.wv
    S = Q @ K.T / sq
    A = softmax_rows(S)
    if use_gate:
        g = cls @ p.wc
        gate = np.array([1.0 / (1.0 + math.exp(-(K[l] @ g) / sq)) for l in range(K.shape[0])])
        A = A * gate[None, :]
    res1 = A @ V + text
    hidden = np.maximum(res1 @ p.w1 + p.b1, 0.0)
    return hidden @ p.w2 + p.b2 + res1


def bilinear_reference(grid, H, W):
    """Per-pixel align-corners bilinear interpolation, scalar loops."""
    h, w, N = grid.shape
    out = np.zeros((H, W, N))
    for o1 in range(H):
        y = 0.0 if h == 1 or H == 1 else o1 * (h - 1) / (H - 1)
        y0 = min(int(math.floor(y)), h - 2) if h > 1 else 0
        fy = y - y0
        for o2 in range(W):
            x = 0.0 if w == 1 or W == 1 else o2 * (w - 1) / (W - 1)
            x0 = min(int(math.floor(x)), w - 2) if w > 1 else 0
            fx = x - x0
            for n in range(N):
                if h == 1 and w == 1:
                    out[o1, o2, n] = grid[0, 0, n]
                elif h == 1:
                    out[o1, o2, n] = grid[0, x0, n] * (1 - fx) + grid[0, x0 + 1, n] * fx
                elif w == 1:
                    out[o1, o2, n] = grid[y0, 0, n] * (1 - fy) + grid[y0 + 1, 0, n] * fy
                else:
                    out[o1, o2, n] = (
                        grid[y0, x0, n] * (1 - fy) * (1 - fx)
                        + grid[y0, x0 + 1, n] * (1 - fy) * fx
                        + grid[y0 + 1, x0, n] * fy * (1 - fx)
                        + grid[y0 + 1, x0 + 1, n] * fy * fx
                    )
    return out


def bce_loss_reference(z, y):
    """The one-expression BCE on pixel logits, max(z, 0) - y*z + log(1 + exp(-|z|)),
    averaged over every element: the form ``training.bce_loss`` computes in place."""
    return float((np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))).mean())


def gaussian_sum_reference(points, sigma, H, W):
    """Channel of unnormalized Gaussians, then divide by the max."""
    M = np.zeros((H, W))
    for y in range(H):
        for x in range(W):
            M[y, x] = sum(
                math.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2 * sigma**2))
                for x0, y0 in points
            )
    peak = M.max()
    return M / peak if peak > 0 else M


def densify_reference(points, sigma, height, width, affordances):
    """``data.densify`` as it was written before its in-place rewrite: each
    Gaussian is a fresh array added into the strided channel of M, and the
    channel is scaled by its peak in place. The rewrite must match it bitwise."""
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    M = np.zeros((height, width, len(affordances)))
    for ch, name in enumerate(affordances):
        for x0, y0 in sorted(points.get(name, [])):
            M[:, :, ch] += np.exp(-((xs - x0) ** 2 + (ys - y0) ** 2) / (2.0 * sigma**2))
        peak = M[:, :, ch].max()
        if peak > 0:
            M[:, :, ch] /= peak
    return M


def heatmap_record_reference(item_id, scores, gt, fixations=None, eps=1e-12):
    """``metrics.heatmap_record`` as it was written before its in-place
    rewrite: each KLD step makes a fresh temporary, and NSS standardizes the
    whole prediction before picking the fixation pixels. Inputs must be
    nonnegative maps; an all-zero prediction channel normalizes to all
    zeros. The rewrite must match it bitwise."""

    def normalized(m):
        total = m.sum()
        return m / total if total > 0 else np.zeros_like(m)

    klds, sims, nsss = [], [], []
    for ch in range(gt.shape[2]):
        g = gt[:, :, ch]
        if g.max() <= 0:
            continue
        p = scores[:, :, ch]
        pn, gn = normalized(p), normalized(g)
        klds.append(float(np.sum(gn * np.log(gn / (pn + eps) + eps))))
        sims.append(float(np.minimum(pn, gn).sum()))
        fix = fixations[:, :, ch] if fixations is not None else g >= 0.5 * g.max()
        if fix.any():
            std = p.std()
            nsss.append(0.0 if std < 1e-12 else float(((p - p.mean()) / std)[fix].mean()))
    return {
        "id": item_id,
        "kld": float(np.mean(klds)) if klds else None,
        "sim": float(np.mean(sims)) if sims else None,
        "nss": float(np.mean(nsss)) if nsss else None,
    }


def kld_reference(pred, gt, eps=1e-12):
    p = np.asarray(pred, dtype=np.float64).ravel()
    g = np.asarray(gt, dtype=np.float64).ravel()
    p = p / p.sum()
    g = g / g.sum()
    return sum(gi * math.log(gi / (pi + eps) + eps) for gi, pi in zip(g, p))


def sim_reference(pred, gt):
    p = np.asarray(pred, dtype=np.float64).ravel()
    g = np.asarray(gt, dtype=np.float64).ravel()
    p = p / p.sum()
    g = g / g.sum()
    return sum(min(a, b) for a, b in zip(p, g))


def nss_reference(pred, fix):
    p = np.asarray(pred, dtype=np.float64).ravel()
    f = np.asarray(fix).ravel().astype(bool)
    mean = p.mean()
    std = math.sqrt(((p - mean) ** 2).mean())
    if std < 1e-12:
        return 0.0
    z = (p - mean) / std
    return z[f].mean()


def colormap_reference(value, anchors):
    """Scalar evaluation of the 3-anchor linear colormap."""
    for (v0, c0), (v1, c1) in zip(anchors, anchors[1:]):
        if value <= v1 or (v0, c0) == anchors[-2]:
            t = 0.0 if v1 == v0 else (value - v0) / (v1 - v0)
            t = min(max(t, 0.0), 1.0)
            return tuple(
                int(math.floor(c0[i] * (1 - t) + c1[i] * t + 0.5)) for i in range(3)
            )
    raise AssertionError("unreachable")


def iou_counts_reference(scores, gt, threshold):
    """Per-channel intersection and union counts as boolean sums over the
    whole H x W x N stack at once."""
    hard = np.asarray(scores) >= threshold
    mask = np.asarray(gt) >= 0.5
    inter = np.logical_and(hard, mask).sum(axis=(0, 1)).astype(np.float64)
    union = np.logical_or(hard, mask).sum(axis=(0, 1)).astype(np.float64)
    return inter, union


def evaluate_reference(ckpt, manifest, items, mode, threshold=0.5):
    """``evaluate_checkpoint(...).to_json()`` the long way round, for a
    non-empty item list: a full ``training.forward`` per item, so the prompts
    are encoded for every item, its full score map scored by
    :func:`heatmap_record_reference`, and boolean-sum IoU counts."""
    from affseg import data, metrics, training

    table, _ = training.build_text_pipeline(ckpt.cfg, ckpt.affordances)
    records, inter, union = [], 0.0, 0.0
    for item in items:
        loaded = data.load_item(manifest, item)
        pred, _ = training.forward(ckpt.params, ckpt.enc, table, loaded.stack)
        if mode == "heatmap":
            fix = None
            if item.target.get("kind") == "keypoints":
                fix = metrics.keypoint_fixations(item.target["points"], loaded.target.shape,
                                                 manifest.affordances)
            records.append(heatmap_record_reference(item.item_id, pred.upsampled,
                                                    loaded.target.M, fix))
        else:
            i, u = iou_counts_reference(pred.upsampled, loaded.target.M, threshold)
            inter, union = inter + i, union + u
            records.append({"id": item.item_id,
                            "iou": [float(a / b) if b > 0 else None for a, b in zip(i, u)]})
    if mode == "heatmap":
        aggregates = {}
        for key in ("kld", "sim", "nss"):
            vals = [rec[key] for rec in records if rec[key] is not None]
            aggregates[key] = float(np.mean(vals)) if vals else None
    else:
        per_class = [float(a / b) if b > 0 else None for a, b in zip(inter, union)]
        aggregates = {"per_class_iou": dict(zip(manifest.affordances, per_class)),
                      "miou": metrics.miou(inter, union)}
    return {"mode": mode, "count": len(records), "items": records, "aggregates": aggregates}


def train_reference(cfg, trainset, affordances):
    """``training.train`` as a loop over separate arrays: each step writes
    plain copies of the parameters into the model, takes
    ``training.backward`` on it, and replaces every copy by
    ``arr - lr * g``. -> (model holding the final copies, loss log)."""
    from affseg import training

    table, enc = training.build_text_pipeline(cfg, affordances)
    mp = training.init_model(cfg, trainset[0].stack.feature_dim)
    arrays = {name: arr.copy() for name, arr in training.param_items(mp)}
    order_rng = np.random.default_rng([cfg.seed, 0x5472])
    log = []
    for i in range(cfg.iterations):
        k = i % len(trainset)
        if k == 0:
            order = order_rng.permutation(len(trainset))
        for name, arr in training.param_items(mp):
            arr[...] = arrays[name]
        loss, grads = training.backward(mp, trainset[order[k]], enc, table)
        arrays = {name: arr - cfg.lr * grads[name] for name, arr in arrays.items()}
        if (i + 1) % cfg.log_every == 0 or i == cfg.iterations - 1:
            log.append((i + 1, loss))
    for name, arr in training.param_items(mp):
        arr[...] = arrays[name]
    return mp, log

"""CLS-gated cross-attention decoder and the prediction head.

Text embeddings query the patch features; a gate computed from the encoder
summary token down-weights background keys so attention stays on foreground.
Each layer is masked cross-attention with a residual, then a two-layer FFN
with a residual. The head is a plain matrix product between patch features
and the decoded text embeddings, upsampled bilinearly to pixel logits and,
where scores are wanted, squashed.

The attention is evaluated from the text side. N queries meet L patches
through products of rank at most N + 1, so the keys ``visual @ wk`` and
values ``visual @ wv`` are never formed: the queries move to the patch side
as ``Q @ wk^T``, the gate's projected summary token as ``wk @ (cls @ wc)``,
and the values are pooled before ``wv``. A layer and its backward cost
O(N L C + N C^2) instead of O(L C^2), and give the key/value form's results
up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .resample import upsample_bilinear, upsample_bilinear_adjoint


@dataclass(frozen=True)
class DecoderLayerParams:
    """One layer: query/key/value maps (C x C), summary-token map (C_v x C),
    and an FFN C -> 4C -> C with a rectifier between."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wc: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class DecoderParams:
    """The decoder layers, and whether their foreground gate is on; ungated,
    every key gets weight one and ``wc`` gets a zero gradient."""

    layers: tuple[DecoderLayerParams, ...] = ()
    gated: bool = True


@dataclass(frozen=True)
class Prediction:
    """Pixel logits (H x W x N, the upsampled patch logits) and their sigmoid
    scores (H x W x N, values in [0, 1]), or None where the scores are not
    wanted whole: training takes its loss and gradient from the logits, and
    eval asks only thresholds of them (a logit below :func:`score_band`'s lo
    misses t and one at or above its hi reaches it; those in between are
    squashed to tell)."""

    logits: np.ndarray
    upsampled: np.ndarray | None


# the gate must stay strictly inside (0, 1) even where float64 sigmoid
# saturates; the clamp is far below any gradient resolution
_GATE_LO = np.finfo(np.float64).tiny
_GATE_HI = 1.0 - 2.0**-53


def cls_mask(cls: np.ndarray, K: np.ndarray, wc: np.ndarray) -> np.ndarray:
    """Foreground gate per key, sigmoid((cls @ wc) @ K^T / sqrt(C)) with C the
    key width -> (L,). Stacked items, cls (B, C_v) and K (B, L, C), give
    (B, L); every entry is strictly inside (0, 1).

    The decoder passes the projected token, the patches and the transposed
    key map, ``cls_mask(cls @ wc, visual, wk.T)``: the same logits as on the
    keys ``visual @ wk``, up to rounding, at O(L C + C^2) instead of O(L C^2)."""
    if cls.shape[-1:] != (wc.shape[0],):
        raise ValueError(f"cls shape {cls.shape} does not match map {wc.shape}")
    if K.shape[-1] != wc.shape[1]:
        raise ValueError(f"key width {K.shape[-1]} does not match map {wc.shape}")
    # vector-matrix products per item: a stacked (B, C_v) @ (C_v, C) product
    # is one gemm, which does not round like B separate vector products
    g = cls[..., None, :] @ wc
    return np.clip(_sigmoid((K @ g.swapaxes(-1, -2))[..., 0] / math.sqrt(K.shape[-1])),
                   _GATE_LO, _GATE_HI)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp only ever sees -|x|, so nothing overflows; in place, this is
    # where(x >= 0, 1, e) / (1 + e) with e = exp(-|x|)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.where(x >= 0, 1.0, e)
    e += 1.0
    s /= e
    return s


# score_band's margins: _sigmoid is within a relative 2**-48 of the true
# sigmoid, plus a few subnormal steps (2**-1074) where exp underflows, and a
# band end within a few ulps of its logit (|z| < 746) moves the true sigmoid by
# a relative 2**-40 at most; outside margins this much wider, the float and the
# true sigmoid fall on the same side of t.
_BAND_REL = 2.0**-30
_BAND_ABS = 2.0**-1060


def score_band(threshold: float) -> tuple[float, float]:
    """Logits (lo, hi) around a threshold t in (0, 1): a logit below lo
    squashes below t, one at or above hi to t or above. They are the logits
    of t -+ ``t * 2**-30 + 2**-1060``, -inf or inf past 0 or 1; at 0.5,
    +-1.86e-9. Inside the band the float sigmoid is not monotone at the scale
    of an ulp, so only squashing a logit there tells which side it falls on."""
    margin = threshold * _BAND_REL + _BAND_ABS
    lo, hi = threshold - margin, threshold + margin
    return (math.log(lo) - math.log1p(-lo) if lo > 0.0 else -math.inf,
            math.log(hi) - math.log1p(-hi) if hi < 1.0 else math.inf)


def _row_softmax(S: np.ndarray) -> np.ndarray:
    e = np.exp(S - S.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class LayerCache(NamedTuple):
    params: DecoderLayerParams
    text_in: np.ndarray
    visual: np.ndarray
    cls: np.ndarray
    Q: np.ndarray             # text_in @ wq
    Qk: np.ndarray            # Q @ wk^T / sqrt(C): the queries moved to the patch side
    g: np.ndarray | None      # cls @ wc; None when the gate is disabled
    gate: np.ndarray | None   # None when the gate is disabled
    attn: np.ndarray          # pre-gate row softmax
    gated: np.ndarray         # attn * gate
    context: np.ndarray       # gated @ visual
    res1: np.ndarray          # context @ wv + text_in
    hidden_pre: np.ndarray    # res1 @ w1 + b1
    hidden: np.ndarray        # rectified


def decoder_layer_cached(text, visual, cls, params: DecoderLayerParams, use_gate=True):
    """One gated cross-attention + FFN layer, from the text side -> (N x C
    text, cache).

    Batch-native: visual (B, L, C) and cls (B, C_v) with text (N, C) or
    (B, N, C) give (B, N, C), each slice bitwise equal to its own 2-D call.
    """
    C = params.wq.shape[0]
    if text.shape[-1] != C or visual.shape[-1] != C:
        raise ValueError(
            f"embed width mismatch: text {text.shape}, visual {visual.shape}, params {C}"
        )
    Q = text @ params.wq
    Qk = Q @ params.wk.T / math.sqrt(C)
    attn = _row_softmax(Qk @ visual.swapaxes(-1, -2))
    if use_gate:
        # a vector-matrix product per item, as in cls_mask
        g = (cls[..., None, :] @ params.wc)[..., 0, :]
        gate = cls_mask(g, visual, params.wk.T)
        gated = attn * gate[..., None, :]
    else:
        g = gate = None
        gated = attn
    context = gated @ visual
    res1 = context @ params.wv + text
    hidden_pre = res1 @ params.w1 + params.b1
    hidden = np.maximum(hidden_pre, 0.0)
    out = hidden @ params.w2 + params.b2 + res1
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("non-finite value in decoder layer output")
    cache = LayerCache(params, text, visual, cls, Q, Qk, g, gate, attn, gated, context, res1,
                       hidden_pre, hidden)
    return out, cache


def decoder_layer_backward(cache: LayerCache, d_out: np.ndarray,
                           out: DecoderLayerParams | None = None):
    """-> (param grad dict, d_text, d_visual), through the same text-side
    products as the forward. Each parameter's gradient is written into its
    array of *out*, numpy style, shaped like the parameters; the dict holds
    those arrays. None allocates them."""
    p = cache.params
    if out is None:
        out = DecoderLayerParams(*(np.empty_like(getattr(p, f.name)) for f in fields(p)))
    sq = math.sqrt(p.wq.shape[0])

    d_res1 = d_out.copy()
    d_hidden = d_out @ p.w2.T
    np.matmul(cache.hidden.T, d_out, out=out.w2)
    np.sum(d_out, axis=0, out=out.b2)
    d_hidden_pre = d_hidden * (cache.hidden_pre > 0)
    np.matmul(cache.res1.T, d_hidden_pre, out=out.w1)
    np.sum(d_hidden_pre, axis=0, out=out.b1)
    d_res1 += d_hidden_pre @ p.w1.T

    np.matmul(cache.context.T, d_res1, out=out.wv)
    d_context = d_res1 @ p.wv.T
    d_gated = d_context @ cache.visual.T
    d_attn = d_gated if cache.gate is None else d_gated * cache.gate
    dot = (d_attn * cache.attn).sum(axis=1, keepdims=True)
    d_S = cache.attn * (d_attn - dot)
    d_Qk = d_S @ cache.visual / sq
    d_Q = d_Qk @ p.wk

    # d_visual = gated^T d_context + d_S^T Qk and d_wk = d_Qk^T Q, plus the
    # gate's rank-one terms, each as one product of stacked factors
    vis_left, vis_right = [cache.gated, d_S], [d_context, cache.Qk]
    wk_left, wk_right = [d_Qk], [cache.Q]
    if cache.gate is not None:
        # the gate logits are visual @ kg / sqrt(C), kg = wk @ g
        d_gate = (d_gated * cache.attn).sum(axis=0)
        d_m = d_gate * cache.gate * (1.0 - cache.gate) / sq
        d_kg = d_m @ cache.visual
        vis_left.append(d_m[None])
        vis_right.append((cache.g @ p.wk.T)[None])
        wk_left.append(d_kg[None])
        wk_right.append(cache.g[None])
        np.outer(cache.cls, d_kg @ p.wk, out=out.wc)
    else:
        out.wc[...] = 0.0
    d_visual = np.concatenate(vis_left).T @ np.concatenate(vis_right)
    np.matmul(np.concatenate(wk_left).T, np.concatenate(wk_right), out=out.wk)

    np.matmul(cache.text_in.T, d_Q, out=out.wq)
    d_text = d_res1 + d_Q @ p.wq.T

    return {f.name: getattr(out, f.name) for f in fields(out)}, d_text, d_visual


def decode_cached(text, visual, cls, dp: DecoderParams):
    """All decoder layers in sequence, gated as ``dp.gated`` says -> (text,
    layer caches); zero layers is the identity. Takes stacked items as
    :func:`decoder_layer_cached` does."""
    caches = []
    cur = text
    for layer in dp.layers:
        cur, cache = decoder_layer_cached(cur, visual, cls, layer, dp.gated)
        caches.append(cache)
    return cur, caches


def decode_backward(caches, d_out: np.ndarray, out=None):
    """-> (list of per-layer grad dicts, d_text, d_visual accumulated); *out*
    is one :func:`decoder_layer_backward` ``out`` per layer, or None."""
    d_text = d_out
    d_visual = None
    grads: list[dict] = []
    outs = [None] * len(caches) if out is None else out
    for cache, layer_out in zip(reversed(caches), reversed(outs), strict=True):
        layer_grads, d_text, d_vis = decoder_layer_backward(cache, d_text, layer_out)
        grads.append(layer_grads)
        d_visual = d_vis if d_visual is None else d_visual + d_vis
    grads.reverse()
    return grads, d_text, d_visual


class PredictCache(NamedTuple):
    visual: np.ndarray
    text_out: np.ndarray
    grid: tuple[int, int]


def predict_cached(visual, text_out, grid: tuple[int, int], image_size: tuple[int, int],
                   scores: bool = True):
    """Patch logits, upsampled to pixel logits and, with *scores*, squashed
    -> (Prediction, cache)."""
    h_p, w_p = grid
    L = visual.shape[0]
    if h_p * w_p != L:
        raise ValueError(f"grid {grid} does not tile {L} patches")
    if visual.shape[1] != text_out.shape[1]:
        raise ValueError(
            f"embed width mismatch: visual {visual.shape}, text {text_out.shape}"
        )
    pred = predict_from_logits(visual @ text_out.T, grid, image_size, scores)
    return pred, PredictCache(visual, text_out, grid)


def predict_from_logits(logits, grid: tuple[int, int], image_size: tuple[int, int],
                        scores: bool = True):
    """The head from L x N patch logits: upsampled to pixel logits and, with
    *scores*, squashed -> Prediction."""
    up_logits = upsample_bilinear(logits.reshape(*grid, logits.shape[1]), image_size)
    return Prediction(logits=up_logits, upsampled=_sigmoid(up_logits) if scores else None)


def predict_backward(cache: PredictCache, d_logits: np.ndarray):
    """Backward from the pixel logits through upsampling and the matrix product.

    -> (d_visual, d_text_out).
    """
    L = cache.visual.shape[0]
    d_patch = upsample_bilinear_adjoint(d_logits, cache.grid).reshape(L, -1)
    return d_patch @ cache.text_out, d_patch.T @ cache.visual

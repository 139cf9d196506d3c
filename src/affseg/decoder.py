"""CLS-gated cross-attention decoder and the prediction head.

Text embeddings query the patch features; a gate computed from the encoder
summary token down-weights background keys so attention stays on foreground.
Each layer is masked cross-attention with a residual, then a two-layer FFN
with a residual. The head is a plain matrix product between patch features
and the decoded text embeddings, upsampled bilinearly and squashed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .resample import upsample_bilinear, upsample_bilinear_adjoint


@dataclass
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

    def __post_init__(self):
        for name in ("wq", "wk", "wv", "wc", "w1", "b1", "w2", "b2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        C = self.wq.shape[0]
        if self.wq.shape != (C, C) or self.wk.shape != (C, C) or self.wv.shape != (C, C):
            raise ValueError("query/key/value maps must be square and same-shaped")
        if self.wc.shape[1] != C:
            raise ValueError(f"summary-token map {self.wc.shape} must end in {C}")
        hidden = self.w1.shape[1]
        if self.w1.shape != (C, hidden) or self.w2.shape != (hidden, C):
            raise ValueError("FFN shapes inconsistent")
        if self.b1.shape != (hidden,) or self.b2.shape != (C,):
            raise ValueError("FFN bias shapes inconsistent")


@dataclass
class DecoderParams:
    """The decoder layers, and whether their foreground gate is on; ungated,
    every key gets weight one and ``wc`` gets a zero gradient."""

    layers: list[DecoderLayerParams] = field(default_factory=list)
    gated: bool = True

    @property
    def depth(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class Prediction:
    """Pixel logits (H x W x N, the upsampled patch logits) and their sigmoid
    scores (H x W x N, values in [0, 1])."""

    logits: np.ndarray
    upsampled: np.ndarray


def init_decoder(depth: int, embed_dim: int, cls_dim: int, seed: int,
                 gated: bool = True) -> DecoderParams:
    """Attention maps near identity, FFN output branch near zero."""
    rng = np.random.default_rng([seed, 0xDEC0])
    C = embed_dim
    layers = []
    for _ in range(depth):
        layers.append(
            DecoderLayerParams(
                wq=np.eye(C) + 0.01 * rng.standard_normal((C, C)),
                wk=np.eye(C) + 0.01 * rng.standard_normal((C, C)),
                wv=np.eye(C) + 0.01 * rng.standard_normal((C, C)),
                wc=rng.standard_normal((cls_dim, C)) / math.sqrt(cls_dim),
                w1=rng.standard_normal((C, 4 * C)) / math.sqrt(C),
                b1=np.zeros(4 * C),
                w2=0.02 * rng.standard_normal((4 * C, C)),
                b2=np.zeros(C),
            )
        )
    return DecoderParams(layers=layers, gated=gated)


# the gate must stay strictly inside (0, 1) even where float64 sigmoid
# saturates; the clamp is far below any gradient resolution
_GATE_LO = np.finfo(np.float64).tiny
_GATE_HI = 1.0 - 2.0**-53


def cls_mask(cls: np.ndarray, K: np.ndarray, wc: np.ndarray) -> np.ndarray:
    """Foreground gate per key, sigmoid((cls @ wc) @ K^T / sqrt(C)) with C the
    key width -> (L,). Stacked items, cls (B, C_v) and K (B, L, C), give
    (B, L); every entry is strictly inside (0, 1)."""
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


def _row_softmax(S: np.ndarray) -> np.ndarray:
    e = np.exp(S - S.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class LayerCache(NamedTuple):
    params: DecoderLayerParams
    text_in: np.ndarray
    visual: np.ndarray
    cls: np.ndarray
    Q: np.ndarray
    K: np.ndarray
    V: np.ndarray
    gate: np.ndarray | None   # None when the gate is disabled
    attn: np.ndarray          # pre-gate row softmax
    gated: np.ndarray         # attn * gate
    res1: np.ndarray          # attention output + text_in
    hidden_pre: np.ndarray    # res1 @ w1 + b1
    hidden: np.ndarray        # rectified


def decoder_layer_cached(text, visual, cls, params: DecoderLayerParams, use_gate=True):
    """One gated cross-attention + FFN layer -> (N x C text, cache).

    Batch-native: visual (B, L, C) and cls (B, C_v) with text (N, C) or
    (B, N, C) give (B, N, C), each slice bitwise equal to its own 2-D call.
    """
    C = params.wq.shape[0]
    if text.shape[-1] != C or visual.shape[-1] != C:
        raise ValueError(
            f"embed width mismatch: text {text.shape}, visual {visual.shape}, params {C}"
        )
    Q = text @ params.wq
    K = visual @ params.wk
    V = visual @ params.wv
    S = Q @ K.swapaxes(-1, -2) / math.sqrt(C)
    attn = _row_softmax(S)
    if use_gate:
        gate = cls_mask(cls, K, params.wc)
        gated = attn * gate[..., None, :]
    else:
        gate = None
        gated = attn
    res1 = gated @ V + text
    hidden_pre = res1 @ params.w1 + params.b1
    hidden = np.maximum(hidden_pre, 0.0)
    out = hidden @ params.w2 + params.b2 + res1
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("non-finite value in decoder layer output")
    cache = LayerCache(
        params, text, visual, cls, Q, K, V, gate, attn, gated, res1, hidden_pre, hidden
    )
    return out, cache


def decoder_layer_backward(cache: LayerCache, d_out: np.ndarray):
    """-> (param grad dict, d_text, d_visual)."""
    p = cache.params
    C = p.wq.shape[0]
    sq = math.sqrt(C)

    d_res1 = d_out.copy()
    d_hidden = d_out @ p.w2.T
    d_w2 = cache.hidden.T @ d_out
    d_b2 = d_out.sum(axis=0)
    d_hidden_pre = d_hidden * (cache.hidden_pre > 0)
    d_w1 = cache.res1.T @ d_hidden_pre
    d_b1 = d_hidden_pre.sum(axis=0)
    d_res1 += d_hidden_pre @ p.w1.T

    d_gated = d_res1 @ cache.V.T
    d_V = cache.gated.T @ d_res1
    d_text = d_res1.copy()

    if cache.gate is not None:
        d_attn = d_gated * cache.gate[None, :]
        d_gate = (d_gated * cache.attn).sum(axis=0)
    else:
        d_attn = d_gated
        d_gate = None

    dot = (d_attn * cache.attn).sum(axis=1, keepdims=True)
    d_S = cache.attn * (d_attn - dot)
    d_Q = d_S @ cache.K / sq
    d_K = d_S.T @ cache.Q / sq

    if cache.gate is not None:
        d_mlog = d_gate * cache.gate * (1.0 - cache.gate)
        d_K += np.outer(d_mlog, cache.cls @ p.wc) / sq
        d_g = cache.K.T @ d_mlog / sq
        d_wc = np.outer(cache.cls, d_g)
    else:
        d_wc = np.zeros_like(p.wc)

    d_wq = cache.text_in.T @ d_Q
    d_text += d_Q @ p.wq.T
    d_wk = cache.visual.T @ d_K
    d_visual = d_K @ p.wk.T
    d_wv = cache.visual.T @ d_V
    d_visual += d_V @ p.wv.T

    grads = {
        "wq": d_wq, "wk": d_wk, "wv": d_wv, "wc": d_wc,
        "w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2,
    }
    return grads, d_text, d_visual


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


def decode_backward(caches, d_out: np.ndarray):
    """-> (list of per-layer grad dicts, d_text, d_visual accumulated)."""
    d_text = d_out
    d_visual = None
    grads: list[dict] = []
    for cache in reversed(caches):
        layer_grads, d_text, d_vis = decoder_layer_backward(cache, d_text)
        grads.append(layer_grads)
        d_visual = d_vis if d_visual is None else d_visual + d_vis
    grads.reverse()
    return grads, d_text, d_visual


class PredictCache(NamedTuple):
    visual: np.ndarray
    text_out: np.ndarray
    grid: tuple[int, int]


def predict_cached(visual, text_out, grid: tuple[int, int], image_size: tuple[int, int]):
    """Patch logits, upsampled to pixel logits and squashed -> (Prediction, cache)."""
    h_p, w_p = grid
    L = visual.shape[0]
    if h_p * w_p != L:
        raise ValueError(f"grid {grid} does not tile {L} patches")
    if visual.shape[1] != text_out.shape[1]:
        raise ValueError(
            f"embed width mismatch: visual {visual.shape}, text {text_out.shape}"
        )
    logits = visual @ text_out.T
    N = logits.shape[1]
    up_logits = upsample_bilinear(logits.reshape(h_p, w_p, N), image_size)
    pred = Prediction(logits=up_logits, upsampled=_sigmoid(up_logits))
    return pred, PredictCache(visual, text_out, grid)


def predict_backward(cache: PredictCache, d_logits: np.ndarray):
    """Backward from the pixel logits through upsampling and the matrix product.

    -> (d_visual, d_text_out).
    """
    L = cache.visual.shape[0]
    d_patch = upsample_bilinear_adjoint(d_logits, cache.grid).reshape(L, -1)
    return d_patch @ cache.text_out, d_patch.T @ cache.visual

"""Text prompt learning.

Trainable context vectors are shared across affordance classes. For class i
the sequence [v_1 .. v_p, token_i] is mean-pooled, pushed through a frozen
seeded projection, and layer-normalized (no affine) to give one text
embedding row. Only the context vectors train; the projection stands in for
a frozen pretrained text encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

LN_EPS = 1e-12


@dataclass(frozen=True)
class StubTextEncoder:
    """Frozen seeded projection C_t -> C playing the part of a text encoder."""

    proj: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, token_dim: int, embed_dim: int, seed: int) -> "StubTextEncoder":
        rng = np.random.default_rng([seed, 0x7E87])
        proj = rng.standard_normal((token_dim, embed_dim)) / np.sqrt(token_dim)
        proj.flags.writeable = False
        return cls(proj=proj)


class TextCache(NamedTuple):
    normed: np.ndarray      # N x C  (the output rows)
    inv_std: np.ndarray     # N
    count: int              # p
    proj: np.ndarray        # C_t x C


def encode_texts_cached(ctx: np.ndarray, tokens: np.ndarray, enc: StubTextEncoder):
    """-> (N x C text embeddings with zero-mean, unit-variance rows, cache)
    of the N x C_t class *tokens* after the p x C_t context *ctx*. A row whose
    variance is not finite (an overflow, or a non-finite context) raises
    ArithmeticError: normalized by an infinite deviation, it would be all zeros."""
    if np.ndim(ctx) != 2:
        raise ValueError(f"context must be a p x C_t array, got shape {np.shape(ctx)}")
    if np.ndim(tokens) != 2:
        raise ValueError(f"class tokens must be an N x C_t array, got shape {np.shape(tokens)}")
    p, ctx_dim = np.shape(ctx)
    token_dim, enc_dim = np.shape(tokens)[1], enc.proj.shape[0]
    if ctx_dim != token_dim:
        raise ValueError(f"context dim {ctx_dim} does not match token dim {token_dim}")
    if token_dim != enc_dim:
        raise ValueError(f"token dim {token_dim} does not match encoder input {enc_dim}")
    pooled = (ctx.sum(axis=0)[None, :] + tokens) / (p + 1)
    h = pooled @ enc.proj
    mu = h.mean(axis=1, keepdims=True)
    var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
    if not np.isfinite(var).all():
        raise ArithmeticError("non-finite layer-norm variance in text encoding")
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    normed = (h - mu) * inv_std
    return normed, TextCache(normed, inv_std[:, 0], p, enc.proj)


def encode_texts_backward(cache: TextCache, d_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the context vectors (p x C_t), empty when p is 0."""
    y = cache.normed
    row_mean = d_out.mean(axis=1, keepdims=True)
    proj_mean = (d_out * y).mean(axis=1, keepdims=True)
    dh = cache.inv_std[:, None] * (d_out - row_mean - y * proj_mean)
    d_pooled = dh @ cache.proj.T
    # every context vector contributes 1/(p+1) to every class row
    d_ctx_row = d_pooled.sum(axis=0) / (cache.count + 1)
    return np.tile(d_ctx_row, (cache.count, 1))

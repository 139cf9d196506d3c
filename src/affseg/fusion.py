"""Multi-layer feature fusion and the visual embedder.

The last j encoder layers are each linearly projected and combined with a
convex weight vector; the weights live as logits under a softmax so the
simplex constraint holds for any parameter value. With j = 0 there is no
fusion: the raw last layer goes to the embedder. The embedder is a single
affine map aligning the fused visual features with the text embedding width.

At inference the two are one linear map, ``sum_i X_i (alpha_i P_i W) + b``:
:func:`fold_embedder` computes the per-layer matrices once per set of
parameters and :func:`embed_folded` applies them to a feature stack.
Training keeps the separate cached passes, whose caches feed the backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .features import FeatureStack


@dataclass(frozen=True)
class FusionParams:
    """Per-layer projections (each C_v x C_v) plus fusion-weight logits."""

    proj: tuple[np.ndarray, ...]
    alpha_logits: np.ndarray

    @property
    def alpha(self) -> np.ndarray:
        return _softmax(self.alpha_logits)


@dataclass(frozen=True)
class Embedder:
    """Affine map C_v -> C applied row-wise to fused patch features."""

    weight: np.ndarray
    bias: np.ndarray


def _softmax(z: np.ndarray) -> np.ndarray:
    # the initial value lets empty logits (j 0) give empty weights
    e = np.exp(z - z.max(initial=-np.inf))
    return e / e.sum()


class FuseCache(NamedTuple):
    layers: tuple[np.ndarray, ...]   # the j used layers, order: last, last-1, ...
    projected: list[np.ndarray]      # layer_i @ proj_i
    alpha: np.ndarray


def _used_layers(stack: FeatureStack, proj_shapes) -> tuple[np.ndarray, ...]:
    """The last ``len(proj_shapes)`` layers, order: last, last-1, ..., each
    checked against the input width of its projection."""
    j = len(proj_shapes)
    if j > len(stack.layers):
        raise ValueError(f"fusion wants {j} layers but stack has {len(stack.layers)}")
    used = tuple(stack.layers[-i] for i in range(1, j + 1))
    for layer, shape in zip(used, proj_shapes):
        if layer.shape[1] != shape[0]:
            raise ValueError(f"layer dim {layer.shape[1]} does not match projection {shape}")
    return used


def _check_embed_input(width: int, emb_in: int) -> None:
    if width != emb_in:
        raise ValueError(f"feature dim {width} does not match embedder input {emb_in}")


def fuse_cached(stack: FeatureStack, fp: FusionParams):
    """Weighted sum over the last j projected layers -> (L x C_v, cache); the
    raw last layer when j is 0."""
    j = len(fp.proj)
    used = _used_layers(stack, [P.shape for P in fp.proj])
    if j == 0:
        return stack.last, FuseCache((), [], np.zeros(0))
    alpha = fp.alpha
    projected = [used[i] @ fp.proj[i] for i in range(j)]
    fused = sum(alpha[i] * projected[i] for i in range(j))
    return fused, FuseCache(used, projected, alpha)


def fuse_backward(cache: FuseCache, d_fused: np.ndarray):
    """-> (d_proj list, d_alpha_logits), both empty when j is 0."""
    alpha = cache.alpha
    d_proj = [alpha[i] * cache.layers[i].T @ d_fused for i in range(len(alpha))]
    d_alpha = np.array([np.sum(d_fused * P) for P in cache.projected])
    d_logits = alpha * (d_alpha - float(d_alpha @ alpha))
    return d_proj, d_logits


class EmbedCache(NamedTuple):
    fused: np.ndarray
    weight: np.ndarray


def embed_cached(fused: np.ndarray, emb: Embedder):
    """Row-wise affine map, no activation -> (L x C, cache)."""
    _check_embed_input(fused.shape[1], emb.weight.shape[0])
    return fused @ emb.weight + emb.bias, EmbedCache(fused, emb.weight)


def embed_backward(cache: EmbedCache, d_out: np.ndarray):
    """-> (d_weight, d_bias, d_fused)."""
    d_weight = cache.fused.T @ d_out
    d_bias = d_out.sum(axis=0)
    d_fused = d_out @ cache.weight.T
    return d_weight, d_bias, d_fused


class FoldedEmbedder(NamedTuple):
    """Fusion and embedder as one linear map, for inference only."""

    weights: tuple[np.ndarray, ...]  # alpha_i * (P_i @ W), order: last, last-1, ...
    bias: np.ndarray
    proj_shapes: tuple[tuple[int, ...], ...]  # empty: no fusion


def fold_embedder(fp: FusionParams, emb: Embedder) -> FoldedEmbedder:
    """One C_v x C matrix per fused layer, ``alpha_i * (P_i @ W)``; with j 0
    (no fusion) the one matrix is ``W`` itself, on the last layer.
    The result reads the parameters as they are now; a ``training.Checkpoint``
    folds once, as its parameters are read-only."""
    if not fp.proj:
        return FoldedEmbedder((emb.weight,), emb.bias, ())
    alpha = fp.alpha
    weights = tuple(alpha[i] * (P @ emb.weight) for i, P in enumerate(fp.proj))
    return FoldedEmbedder(weights, emb.bias, tuple(P.shape for P in fp.proj))


def embed_folded(stack: FeatureStack, folded: FoldedEmbedder) -> np.ndarray:
    """``embed_cached(fuse_cached(stack, fp), emb)`` from ``fold_embedder(fp,
    emb)`` -> L x C, equal up to rounding (bitwise with j 0), with the same
    errors; the products are summed into one output, the layers are never
    concatenated."""
    used = _used_layers(stack, folded.proj_shapes) or (stack.last,)
    _check_embed_input(used[0].shape[1], folded.weights[0].shape[0])
    visual = used[0] @ folded.weights[0]
    for layer, M in zip(used[1:], folded.weights[1:]):
        visual += layer @ M
    visual += folded.bias
    return visual

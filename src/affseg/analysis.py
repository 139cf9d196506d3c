"""Feature analysis: PCA of patch features, cross-image cosine-similarity
maps, and deterministic heatmap rendering to binary PPM."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureStack

# anchors of the rendering colormap: value 0 -> black, 0.5 -> red, 1 -> yellow
COLORMAP_ANCHORS = ((0.0, (0, 0, 0)), (0.5, (255, 0, 0)), (1.0, (255, 255, 0)))


@dataclass(frozen=True)
class PCAResult:
    scores: np.ndarray                 # L x k
    components: np.ndarray = field(repr=False)  # k x C_v, rows orthonormal
    explained_variance: np.ndarray     # k, nonincreasing
    total_variance: float


def pca_project(features: np.ndarray, k: int) -> PCAResult:
    """Top-k principal components from the eigendecomposition of the sample
    covariance of the centered columns.

    Each component's largest-magnitude entry is made positive so renderings
    are reproducible.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-d, got {X.shape}")
    L, dim = X.shape
    if not 1 <= k < L:
        raise ValueError(f"need 1 <= k < number of rows, got k={k}, rows={L}")
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / (L - 1)

    # eigh sorts ascending; keep the top min(k, dim) in descending order
    w, V = np.linalg.eigh(cov)
    ev = np.maximum(w[::-1][:k], 0.0)
    B = V[:, ::-1][:, :k]
    B = B * np.sign(B[np.abs(B).argmax(axis=0), np.arange(B.shape[1])])
    return PCAResult(
        scores=Xc @ B,
        components=B.T,
        explained_variance=ev,
        total_variance=float(np.trace(cov)),
    )


def similarity_map(query: np.ndarray, target: FeatureStack, layer: int = -1) -> np.ndarray:
    """Cosine similarity of a query vector against every patch of one layer,
    shaped to the patch grid. Zero-norm patches score 0 (with a warning)."""
    q = np.asarray(query, dtype=np.float64)
    feats = target.layers[layer]
    if q.shape != (feats.shape[1],):
        raise ValueError(f"query shape {q.shape} does not match patches {feats.shape}")
    qn = np.linalg.norm(q)
    if qn == 0:
        raise ValueError("zero-norm query")
    norms = np.linalg.norm(feats, axis=1)
    zero = norms == 0
    if zero.any():
        warnings.warn(f"{int(zero.sum())} zero-norm patches scored as 0 similarity")
    sims = np.where(zero, 0.0, feats @ q / (np.maximum(norms, 1e-300) * qn))
    return sims.reshape(target.grid)


def render_heatmap(map_values: np.ndarray, path) -> None:
    """Write a min-max normalized map as a binary PPM (P6) image.

    The colormap interpolates linearly between the (value, rgb) pairs of
    ``COLORMAP_ANCHORS``; a constant map renders in the first anchor's color.
    Output is bit-deterministic.
    """
    m = np.asarray(map_values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"map must be 2-d, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite map values")
    lo, hi = m.min(), m.max()
    normed = np.zeros_like(m) if hi - lo < 1e-300 else (m - lo) / (hi - lo)
    rgb = _apply_colormap(normed)
    h, w = m.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def _apply_colormap(normed: np.ndarray) -> np.ndarray:
    values = np.array([a[0] for a in COLORMAP_ANCHORS])
    colors = np.array([a[1] for a in COLORMAP_ANCHORS], dtype=np.float64)
    flat = normed.reshape(-1)
    seg = np.clip(np.searchsorted(values, flat, side="right") - 1, 0, len(values) - 2)
    v0, v1 = values[seg], values[seg + 1]
    t = np.where(v1 > v0, (flat - v0) / np.where(v1 > v0, v1 - v0, 1.0), 0.0)
    mixed = colors[seg] * (1.0 - t[:, None]) + colors[seg + 1] * t[:, None]
    out = mixed.reshape(normed.shape + (3,))
    return np.floor(out + 0.5).astype(np.uint8)

"""Align-corners resampling between the patch grid and pixel space.

With align-corners geometry, source sample k sits at destination coordinate
k*(dst-1)/(src-1): the first and last samples map exactly onto the first and
last pixels. Bilinear interpolation is a fixed linear map, so upsampling is
a pair of matrix products and its gradient is the transposed pair.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def bilinear_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """(n_dst x n_src) interpolation weights along one axis."""
    if n_src < 1 or n_dst < 1:
        raise ValueError("sizes must be positive")
    U = np.zeros((n_dst, n_src))
    if n_src == 1:
        U[:, 0] = 1.0
        return U
    if n_dst == 1:
        U[0, 0] = 1.0
        return U
    scale = (n_src - 1) / (n_dst - 1)
    for o in range(n_dst):
        pos = o * scale
        k0 = min(int(np.floor(pos)), n_src - 2)
        frac = pos - k0
        U[o, k0] = 1.0 - frac
        U[o, k0 + 1] = frac
    return U


@lru_cache(maxsize=None)
def nearest_index(n_src: int, n_dst: int) -> np.ndarray:
    """Nearest source sample for each destination pixel (ties round up)."""
    if n_src == 1 or n_dst == 1:
        return np.zeros(n_dst, dtype=np.intp)
    pos = np.arange(n_dst) * (n_src - 1) / (n_dst - 1)
    return np.minimum(np.floor(pos + 0.5).astype(np.intp), n_src - 1)


@lru_cache(maxsize=None)
def _einsum_path(subscripts: str, *shapes: tuple[int, ...]) -> list:
    """The contraction path ``optimize=True`` picks; it depends on the shapes only."""
    return np.einsum_path(subscripts, *(np.empty(s) for s in shapes), optimize=True)[0]


def _einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(..., optimize=True)`` without the per-call path search; the
    same path gives the same bits."""
    path = _einsum_path(subscripts, *(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def upsample_bilinear(grid: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """(h, w, N) grid of values -> (H, W, N) align-corners bilinear field."""
    h, w = grid.shape[:2]
    H, W = out_hw
    Ur = bilinear_matrix(h, H)
    Uc = bilinear_matrix(w, W)
    return _einsum("ak,kcn,bc->abn", Ur, grid, Uc)


def upsample_bilinear_adjoint(d_out: np.ndarray, grid_hw: tuple[int, int]) -> np.ndarray:
    """Gradient of :func:`upsample_bilinear` w.r.t. its grid input."""
    H, W = d_out.shape[:2]
    h, w = grid_hw
    Ur = bilinear_matrix(h, H)
    Uc = bilinear_matrix(w, W)
    return _einsum("ak,abn,bc->kcn", Ur, d_out, Uc)

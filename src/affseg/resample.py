"""Align-corners resampling between the patch grid and pixel space.

With align-corners geometry, source sample k sits at destination coordinate
k*(dst-1)/(src-1): the first and last samples map exactly onto the first and
last pixels. Bilinear interpolation is a fixed linear map, so upsampling is
a pair of matrix products and its gradient is the transposed pair.

Each function is written out as those two matmuls. At the geometries that
gen-synth and the benchmark build (8 -> 64 and 16 -> 224, 1 to 5 channels)
they are the products ``np.einsum(..., optimize=True)`` runs, to the bit and
stride. Elsewhere einsum may pick another order (e.g. the adjoint at 4 -> 16
with 4 channels), and the results may differ in the last bits; the tests hold
them to a scalar reference within 1e-13 of the largest input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def bilinear_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """(n_dst x n_src) interpolation weights along one axis; cached and shared,
    so read-only."""
    if n_src < 1 or n_dst < 1:
        raise ValueError("sizes must be positive")
    U = np.zeros((n_dst, n_src))
    if n_src == 1 or n_dst == 1:
        U[:, 0] = 1.0
    else:
        scale = (n_src - 1) / (n_dst - 1)
        for o in range(n_dst):
            pos = o * scale
            k0 = min(int(np.floor(pos)), n_src - 2)
            frac = pos - k0
            U[o, k0] = 1.0 - frac
            U[o, k0 + 1] = frac
    U.flags.writeable = False
    return U


@lru_cache(maxsize=None)
def nearest_index(n_src: int, n_dst: int) -> np.ndarray:
    """Nearest source sample for each destination pixel (ties round up);
    cached and shared, so read-only."""
    if n_src == 1 or n_dst == 1:
        index = np.zeros(n_dst, dtype=np.intp)
    else:
        pos = np.arange(n_dst) * (n_src - 1) / (n_dst - 1)
        index = np.minimum(np.floor(pos + 0.5).astype(np.intp), n_src - 1)
    index.flags.writeable = False
    return index


def upsample_bilinear(grid: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """(h, w, N) grid of values -> (H, W, N) align-corners bilinear field,
    laid out channel by channel (an (N, H, W) C-ordered buffer)."""
    h, w, N = grid.shape
    H, W = out_hw
    Ur = bilinear_matrix(h, H)
    Uc = bilinear_matrix(w, W)
    t = grid.transpose(1, 2, 0).reshape(w * N, h) @ Ur.T
    t = t.reshape(w, N, H).transpose(1, 2, 0)
    return (t.reshape(N * H, w) @ Uc.T).reshape(N, H, W).transpose(1, 2, 0)


def upsample_bilinear_adjoint(d_out: np.ndarray, grid_hw: tuple[int, int]) -> np.ndarray:
    """Gradient of :func:`upsample_bilinear` w.r.t. its grid input, laid out
    channel by channel like the forward's output."""
    H, W, N = d_out.shape
    h, w = grid_hw
    Ur = bilinear_matrix(h, H)
    Uc = bilinear_matrix(w, W)
    t = d_out.transpose(1, 2, 0).reshape(W * N, H) @ Ur
    t = t.reshape(W, N, h).transpose(1, 2, 0)
    return (t.reshape(N * h, W) @ Uc).reshape(N, h, w).transpose(1, 2, 0)

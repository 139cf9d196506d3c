"""Central finite-difference verification of the analytic gradients.

Builds a small random model and batch, then compares every trainable
tensor's analytic gradient against (f(x+h) - f(x-h)) / 2h in float64.
"""

from __future__ import annotations

import numpy as np

from . import training
from .data import AffordanceTarget, LoadedItem
from .features import FeatureStack
from .training import ModelParams, TrainConfig

FD_STEP = 1e-5
REL_TOL = 1e-4
REL_FLOOR = 1e-5


def build_problem(
    seed: int = 0,
    num_classes: int = 3,
    grid: tuple[int, int] = (2, 2),
    C: int = 8,
    C_v: int = 12,
    p: int = 2,
    j: int = 2,
    t: int = 2,
    image_size: tuple[int, int] = (8, 8),
):
    """Random dims-as-requested instance: params, encoder, table, one item."""
    cfg = TrainConfig(seed=seed, p=p, j=j, t=t, C=C, C_t=8, iterations=0)
    names = [f"aff{i}" for i in range(num_classes)]
    table, enc = training.build_text_pipeline(cfg, names)
    rng = np.random.default_rng([seed, 0xFD])
    L = grid[0] * grid[1]
    layers = tuple(rng.standard_normal((L, C_v)) for _ in range(j))
    stack = FeatureStack(
        layers=layers,
        cls=rng.standard_normal(C_v),
        grid=grid,
        image_size=image_size,
    )
    target = AffordanceTarget(
        M=(rng.random((*image_size, num_classes)) < 0.5).astype(np.float64)
    )
    item = LoadedItem("gradcheck", "obj", stack, target)
    params = training.init_model(cfg, C_v)
    # push params off their symmetric init so no gradient path is degenerate
    for _, arr in training.param_items(params):
        arr += 0.05 * rng.standard_normal(arr.shape)
    return params, enc, table, item


def finite_difference(loss_fn, params: ModelParams, step: float = FD_STEP):
    """Central differences for every entry of every parameter array."""
    grads = {}
    for name, arr in training.param_items(params):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = loss_fn(params)
            flat[idx] = orig - step
            lo = loss_fn(params)
            flat[idx] = orig
            gflat[idx] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


def run_check(seed: int = 0, ablate: str | None = None, **dims):
    """-> (max relative error, per-parameter error dict)."""
    params, enc, table, item = build_problem(seed=seed, **dims)

    def loss_fn(mp):
        pred, _ = training.forward(mp, enc, table, item.stack, ablate=ablate)
        return training.bce_loss(pred, item.target)

    _, analytic = training.backward(params, item, enc, table, ablate=ablate)
    numeric = finite_difference(loss_fn, params)

    per_param = {}
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_FLOOR)
        per_param[name] = float((np.abs(a - n) / denom).max()) if a.size else 0.0
    return max(per_param.values()), per_param

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


def class_names(num_classes: int = 3) -> list[str]:
    """The affordance names of a :func:`build_problem` instance."""
    return [f"aff{i}" for i in range(num_classes)]


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
    gate: bool = True,
):
    """Random dims-as-requested instance: params, encoder, class tokens (of
    :func:`class_names`), one item whose feature stack has max(j, 1) layers."""
    cfg = TrainConfig(seed=seed, p=p, j=j, t=t, C=C, C_t=8, iterations=0, gate=gate)
    table, enc = training.build_text_pipeline(cfg, class_names(num_classes))
    rng = np.random.default_rng([seed, 0xFD])
    L = grid[0] * grid[1]
    layers = tuple(rng.standard_normal((L, C_v)) for _ in range(max(j, 1)))
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
    params.theta[...] += 0.05 * rng.standard_normal(params.theta.size)
    return params, enc, table, item


def finite_difference(loss_fn, params: ModelParams):
    """Central differences with step ``FD_STEP`` for every entry of
    ``params.theta``, as a :class:`training.Gradients`."""
    grads = training.zero_gradients(params)
    theta = params.theta
    for idx in range(theta.size):
        orig = theta[idx]
        theta[idx] = orig + FD_STEP
        hi = loss_fn(params)
        theta[idx] = orig - FD_STEP
        lo = loss_fn(params)
        theta[idx] = orig
        grads.flat[idx] = (hi - lo) / (2.0 * FD_STEP)
    return grads


def run_check(seed: int = 0, **overrides):
    """-> (max relative error, per-parameter error dict) of the model that
    :func:`build_problem` builds with *overrides* (say ``t=0``)."""
    params, enc, table, item = build_problem(seed=seed, **overrides)

    def loss_fn(mp):
        pred, _ = training.forward(mp, enc, table, item.stack)
        return training.bce_loss(pred, item.target)

    _, analytic = training.backward(params, item, enc, table)
    numeric = finite_difference(loss_fn, params)

    per_param = {}
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_FLOOR)
        per_param[name] = float((np.abs(a - n) / denom).max()) if a.size else 0.0
    return max(per_param.values()), per_param

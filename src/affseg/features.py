"""Multi-layer patch-feature containers and their on-disk format.

A :class:`FeatureStack` is the input contract of the whole model: per-image
patch tokens from several encoder layers (last layer last) plus a summary
token, all float64. Stacks are produced either by the synthetic encoders in
:mod:`affseg.synth` or ingested from disk, e.g. features exported offline
from a real vision transformer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import container
from .container import CorruptionError, FormatError

__all__ = [
    "FeatureStack",
    "save_features",
    "load_features",
    "synth_text_tokens",
    "FormatError",
    "CorruptionError",
]


@dataclass(frozen=True)
class FeatureStack:
    """Per-image features: ``layers`` is the n x L x C_v float64 array of the
    patch matrices of n encoder layers (deepest layer last), ``cls`` the
    length-C_v summary token.

    A loaded stack keeps the file's payload view as it is; a tuple of equal
    L x C_v layers is stacked once. All layers are checked for finiteness in
    one pass. ``grid`` is the (rows, cols) patch layout with rows*cols == L
    and ``image_size`` the (H, W) pixel size the patches were taken from.
    """

    layers: np.ndarray
    cls: np.ndarray
    grid: tuple[int, int]
    image_size: tuple[int, int]

    def __post_init__(self):
        try:
            layers = np.asarray(self.layers, dtype=np.float64)
        except ValueError:
            shapes = [np.shape(l) for l in self.layers]
            if len(set(shapes)) > 1:
                raise ValueError(f"layer shapes differ: {shapes}") from None
            raise
        if len(layers) == 0:
            raise ValueError("feature stack needs at least one layer")
        if layers.ndim != 3:
            raise ValueError(f"layers must be 2-d, got shape {layers.shape[1:]}")
        if not np.isfinite(layers).all():
            raise ValueError("non-finite values in feature layer")
        cls = np.asarray(self.cls, dtype=np.float64)
        _, L, C = layers.shape
        if cls.shape != (C,):
            raise ValueError(f"cls shape {cls.shape} does not match feature dim {C}")
        if not np.isfinite(cls).all():
            raise ValueError("non-finite values in cls token")
        if min(*self.grid, *self.image_size) < 1:
            raise ValueError(f"grid {self.grid} and image size {self.image_size} "
                             "need sides of at least 1")
        h_p, w_p = self.grid
        if h_p * w_p != L:
            raise ValueError(f"grid {self.grid} does not tile {L} patches")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "cls", cls)

    @property
    def feature_dim(self) -> int:
        return self.layers.shape[2]

    @functools.cached_property
    def last(self) -> np.ndarray:
        return self.layers[-1]


def save_features(stack: FeatureStack, path) -> None:
    """Write *stack* to *path* as a grid file, header (n_layers, L, C_v, h_p,
    w_p, H, W), the layers and the cls vector; round-trips are bit-exact."""
    container.write_grid(path, stack.layers, stack.cls, stack.grid, stack.image_size)


def load_features(path) -> FeatureStack:
    """Read a stack written by :func:`save_features`. A file that is not one
    raises FormatError, one whose content is not a valid stack
    CorruptionError; both name *path*."""
    try:
        layers, cls, grid, image_size = container.read_grid(path)
        return FeatureStack(layers, cls, grid, image_size)
    except (FormatError, CorruptionError, ValueError) as exc:
        error = FormatError if isinstance(exc, FormatError) else CorruptionError
        raise error(f"{path}: {exc}") from exc


def synth_text_tokens(names, token_dim: int, seed: int) -> np.ndarray:
    """Deterministic stand-in for pretrained text token embeddings: the
    N x token_dim float64 array with one row per name, in order.

    Each row is a seeded Gaussian draw normalized to unit length; the draw
    is keyed by the name itself, so equal names give equal rows no matter
    the position or surrounding vocabulary. An empty or repeated name list
    raises ValueError.
    """
    names = tuple(names)
    if not names:
        raise ValueError("need at least one affordance name")
    if len(set(names)) != len(names):
        raise ValueError("affordance names must be unique")
    rows = []
    for name in names:
        rng = np.random.default_rng([seed, _stable_hash(name)])
        v = rng.standard_normal(token_dim)
        rows.append(v / math.sqrt(float(v @ v)))
    return np.array(rows)


def _stable_hash(text: str) -> int:
    """64-bit FNV-1a; Python's hash() is salted per process."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h

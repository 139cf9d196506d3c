"""Deterministic synthetic stand-in for pretrained vision encoders.

The generator plants a small set of "part" signature vectors on a patch
grid: every object is a handful of parts at rectangular placements, novel
objects reuse the signatures of base parts at fresh placements. Because the
signatures are shared, one-shot generalization to novel objects is
measurable by construction. Features are pure functions of
(seed, object id, noise scale), so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import check_array_size
from .features import FeatureStack, _stable_hash
from .resample import nearest_index

DEFAULT_AFFORDANCES = ("grasp", "cut", "contain", "support")

# Signatures get this norm so that per-patch Gaussian noise at scale ~0.05
# leaves same-part patches highly aligned (cosine > 0.95 at C_v = 32).
SIGNATURE_NORM = 2.0
# rejection draws before _draw_signatures gives up (3 to 5 dims succeed within ~2,000)
MAX_SIGNATURE_DRAWS = 20_000


@dataclass(frozen=True)
class Placement:
    """Axis-aligned patch rectangle occupied by one part."""

    part: int
    row0: int
    col0: int
    rows: int
    cols: int


@dataclass(frozen=True)
class ObjectSpec:
    object_id: str
    placements: tuple[Placement, ...]
    novel: bool


@dataclass(frozen=True)
class SynthWorldSpec:
    """Full description of a synthetic world.

    ``parts[i]`` is a (signature, affordance index) pair; ``background`` is
    the signature given to uncovered patches and carries no affordance.
    """

    seed: int
    parts: tuple[tuple[np.ndarray, int], ...]
    objects: tuple[ObjectSpec, ...]
    background: np.ndarray = field(repr=False)
    affordances: tuple[str, ...]
    grid: tuple[int, int]
    image_size: tuple[int, int]
    num_layers: int

    def __post_init__(self):
        sigs = [np.asarray(s, dtype=np.float64) for s, _ in self.parts]
        if not sigs:
            raise ValueError("world needs at least one part")
        for i, (s, aff) in enumerate(zip(sigs, (a for _, a in self.parts))):
            if not 0 <= aff < len(self.affordances):
                raise ValueError(f"part {i} affordance index {aff} out of range")
            for j in range(i):
                cos = abs(s @ sigs[j]) / (np.linalg.norm(s) * np.linalg.norm(sigs[j]))
                if cos > 0.999:
                    raise ValueError(f"part signatures {i} and {j} are collinear")
        if len({o.object_id for o in self.objects}) != len(self.objects):
            raise ValueError("object ids must be unique")

    def object(self, object_id: str) -> ObjectSpec:
        for obj in self.objects:
            if obj.object_id == object_id:
                return obj
        raise ValueError(f"unknown object id {object_id!r}")

    @property
    def feature_dim(self) -> int:
        return self.parts[0][0].shape[0]


def make_world(
    seed: int,
    num_base: int = 8,
    num_novel: int = 2,
    num_parts: int = 4,
    feature_dim: int = 32,
    grid: tuple[int, int] = (8, 8),
    image_size: tuple[int, int] = (64, 64),
    num_layers: int = 4,
    affordances=DEFAULT_AFFORDANCES,
) -> SynthWorldSpec:
    """Draw a random world: part signatures, then object part layouts.

    Every part appears on at least one base object (object i always carries
    part i mod num_parts), so every affordance is observable in a one-shot
    training set. Novel objects draw from the same part pool.
    """
    affordances = tuple(affordances)
    for name, value, low in (("seed", seed, 0), ("num_base", num_base, 1),
                             ("num_novel", num_novel, 0), ("num_parts", num_parts, 1),
                             ("feature_dim", feature_dim, 1), ("num_layers", num_layers, 1)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value!r}")
    if len(affordances) < 1:
        raise ValueError("need at least one affordance name")
    # an item's feature stack: num_layers maps of the grid's patches and the summary token
    check_array_size((num_layers * grid[0] * grid[1] + 1) * feature_dim,
                     f"num_layers {num_layers} and feature_dim {feature_dim} on grid {grid}")
    rng = np.random.default_rng([seed, 0xA11CE])

    sigs = _draw_signatures(rng, num_parts + 1, feature_dim)
    background = sigs[-1]
    parts = tuple((sigs[i], i % len(affordances)) for i in range(num_parts))

    objects = []
    for i in range(num_base + num_novel):
        novel = i >= num_base
        forced = i % num_parts
        extras = [p for p in range(num_parts) if p != forced]
        rng.shuffle(extras)
        chosen = [forced] + extras[: int(rng.integers(0, min(2, len(extras)) + 1))]
        placements = _place_parts(rng, chosen, grid)
        name = f"{'novel' if novel else 'base'}-{i if not novel else i - num_base:02d}"
        objects.append(ObjectSpec(object_id=name, placements=placements, novel=novel))

    return SynthWorldSpec(
        seed=seed,
        parts=parts,
        objects=tuple(objects),
        background=background,
        affordances=affordances,
        grid=grid,
        image_size=image_size,
        num_layers=num_layers,
    )


def _draw_signatures(rng, count: int, dim: int) -> list[np.ndarray]:
    sigs: list[np.ndarray] = []
    for _ in range(MAX_SIGNATURE_DRAWS):
        v = rng.standard_normal(dim)
        v *= SIGNATURE_NORM / np.linalg.norm(v)
        if all(abs(v @ s) / SIGNATURE_NORM**2 < 0.8 for s in sigs):
            sigs.append(v)
            if len(sigs) == count:
                return sigs
    raise ValueError(f"no signatures for {count - 1} parts and a background in feature dim {dim}")


def _place_parts(rng, part_ids, grid) -> tuple[Placement, ...]:
    """Greedy non-overlapping rectangles; sizes shrink on collision."""
    h_p, w_p = grid
    taken = np.zeros((h_p, w_p), dtype=bool)
    placements = []
    for part in part_ids:
        for size in (3, 2, 1):
            rows = min(size + int(rng.integers(0, 2)), h_p)
            cols = min(size + int(rng.integers(0, 2)), w_p)
            spot = _find_spot(rng, taken, rows, cols)
            if spot is not None:
                r0, c0 = spot
                taken[r0 : r0 + rows, c0 : c0 + cols] = True
                placements.append(Placement(part, r0, c0, rows, cols))
                break
    return tuple(placements)


def _find_spot(rng, taken, rows, cols):
    h_p, w_p = taken.shape
    if rows > h_p or cols > w_p:
        return None
    for _ in range(40):
        r0 = int(rng.integers(0, h_p - rows + 1))
        c0 = int(rng.integers(0, w_p - cols + 1))
        if not taken[r0 : r0 + rows, c0 : c0 + cols].any():
            return r0, c0
    return None


def part_map(spec: SynthWorldSpec, object_id: str) -> np.ndarray:
    """(h_p, w_p) int map: part index per patch, -1 for background."""
    obj = spec.object(object_id)
    h_p, w_p = spec.grid
    labels = np.full((h_p, w_p), -1, dtype=np.intp)
    for pl in obj.placements:
        labels[pl.row0 : pl.row0 + pl.rows, pl.col0 : pl.col0 + pl.cols] = pl.part
    return labels


def check_noise(noise_scale: float) -> None:
    """The noise rule of :func:`synth_vision_encode`: finite and >= 0."""
    if not (np.isfinite(noise_scale) and noise_scale >= 0):
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale!r}")


def synth_vision_encode(
    spec: SynthWorldSpec, object_id: str, noise_scale: float, variant: int = 0
) -> FeatureStack:
    """Emit the multi-layer feature stack for one object.

    Each covered patch carries its part signature, uncovered patches the
    background signature. Layer d (0-based, last layer = num_layers-1) blends
    every patch toward the object-mean signature with a factor that decays to
    zero at the last layer, so layers differ but the last layer is exact.
    Seeded Gaussian noise of the given scale is added per patch; ``variant``
    selects an independent noise draw for additional items of one object.
    """
    check_noise(noise_scale)
    obj = spec.object(object_id)
    h_p, w_p = spec.grid
    labels = part_map(spec, object_id).reshape(-1)
    C_v = spec.feature_dim

    base = np.empty((h_p * w_p, C_v))
    for i, lab in enumerate(labels):
        base[i] = spec.background if lab < 0 else spec.parts[lab][0]
    mean_sig = base.mean(axis=0)

    rng = np.random.default_rng([spec.seed, _stable_hash(obj.object_id), variant])
    n = spec.num_layers
    layers = []
    for d in range(n):
        mix = 0.0 if n == 1 else 0.5 * (n - 1 - d) / (n - 1)
        layer = (1.0 - mix) * base + mix * mean_sig
        layer = layer + noise_scale * rng.standard_normal(layer.shape)
        layers.append(layer)
    cls = layers[-1].mean(axis=0)
    return FeatureStack(
        layers=tuple(layers), cls=cls, grid=spec.grid, image_size=spec.image_size
    )


def synth_target(spec: SynthWorldSpec, object_id: str) -> np.ndarray:
    """(H, W, N) binary ground truth for one object.

    Pixels are labelled by their nearest patch under the same align-corners
    geometry the prediction head upsamples with, so the target boundary sits
    at the midpoint between patch centers.
    """
    labels = part_map(spec, object_id)
    H, W = spec.image_size
    h_p, w_p = spec.grid
    rows = nearest_index(h_p, H)
    cols = nearest_index(w_p, W)
    pixel_parts = labels[np.ix_(rows, cols)]
    N = len(spec.affordances)
    M = np.zeros((H, W, N), dtype=bool)
    for part, (_, aff) in enumerate(spec.parts):
        M[:, :, aff] |= pixel_parts == part
    return M.astype(np.float64)

"""Seeded inputs for the benchmark workloads.

A world is written to disk the way ``affseg gen-synth`` lays it out (feature
files, target files, ``manifest.json``), so the program only ever sees the
generated files and manifest items. Unlike ``gen-synth``, the geometry is a
parameter and items may carry keypoint targets instead of masks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from affseg import data, features, synth, training

# README training config; the step count is set per scale below.
README_CONFIG = dict(lr=0.01, seed=7, p=8, j=3, t=2, C=64, C_t=64, log_every=100)

NOISE = 0.05  # gen-synth default
PARTS = 4  # gen-synth default


@dataclass(frozen=True)
class WorldSpec:
    base: int
    novel: int
    items: int
    feature_dim: int
    grid: tuple[int, int]
    image_size: tuple[int, int]
    layers: int
    # 0: binary mask targets; k > 0: k keypoints per non-empty channel
    keypoints: int = 0


@dataclass(frozen=True)
class Scale:
    train_world: WorldSpec
    eval_world: WorldSpec
    query_world: WorldSpec
    config: dict
    train_steps: int
    query_train_steps: int
    setup_repeats: int
    # keep setting up until this much time is spent (cheap set-ups are noisy)
    min_setup_seconds: float


SCALES = {
    "full": Scale(
        train_world=WorldSpec(8, 2, 3, 32, (8, 8), (64, 64), 4),
        eval_world=WorldSpec(32, 8, 6, 32, (8, 8), (64, 64), 4),
        # geometry of ViT-S/14 features exported for a 224 x 224 image
        query_world=WorldSpec(24, 8, 2, 384, (16, 16), (224, 224), 3, keypoints=3),
        config=README_CONFIG,
        train_steps=500,
        query_train_steps=25,
        setup_repeats=3,
        min_setup_seconds=2.0,
    ),
    # harness smoke test only: every code path, seconds of work
    "smoke": Scale(
        train_world=WorldSpec(3, 1, 2, 12, (4, 4), (16, 16), 3),
        eval_world=WorldSpec(4, 2, 2, 12, (4, 4), (16, 16), 3),
        query_world=WorldSpec(3, 1, 2, 24, (4, 4), (28, 28), 3, keypoints=3),
        config=dict(lr=0.01, seed=7, p=2, j=2, t=2, C=8, C_t=8, log_every=5),
        train_steps=12,
        query_train_steps=3,
        setup_repeats=2,
        min_setup_seconds=0.0,
    ),
}


def train_config(scale: Scale, steps: int) -> training.TrainConfig:
    return training.TrainConfig(iterations=steps, **scale.config)


def write_world(spec: WorldSpec, seed: int, out: Path) -> Path:
    """Generate a synthetic world from *seed* and write it under *out*.

    Returns the manifest path. Keypoints are continuous (x, y) positions drawn
    uniformly inside the pixel cells of mask pixels; see ``draw_keypoints``.
    """
    (out / "feats").mkdir(parents=True, exist_ok=True)
    (out / "targets").mkdir(parents=True, exist_ok=True)
    world = synth.make_world(
        seed=seed,
        num_base=spec.base,
        num_novel=spec.novel,
        num_parts=PARTS,
        feature_dim=spec.feature_dim,
        grid=spec.grid,
        image_size=spec.image_size,
        num_layers=spec.layers,
    )
    items = []
    for k, obj in enumerate(world.objects):
        mask = synth.synth_target(world, obj.object_id)
        if not spec.keypoints:
            tpath = f"targets/{obj.object_id}.ooal"
            data.save_target(data.AffordanceTarget(M=mask), out / tpath)
        for v in range(spec.items):
            stack = synth.synth_vision_encode(world, obj.object_id, NOISE, variant=v)
            fpath = f"feats/{obj.object_id}-{v:02d}.ooal"
            features.save_features(stack, out / fpath)
            if spec.keypoints:
                rng = np.random.default_rng([seed, k, v])
                target = {
                    "kind": "keypoints",
                    "points": draw_keypoints(rng, mask, world.affordances, spec.keypoints),
                }
            else:
                target = {"kind": "mask", "path": tpath}
            items.append(
                data.ManifestItem(
                    item_id=f"{obj.object_id}-{v:02d}",
                    object_id=obj.object_id,
                    features=fpath,
                    target=target,
                )
            )
    manifest = data.DatasetManifest(
        affordances=world.affordances,
        objects=tuple((o.object_id, o.novel) for o in world.objects),
        items=tuple(items),
        root=out,
    )
    path = out / "manifest.json"
    data.save_manifest(manifest, path)
    return path


def draw_keypoints(rng, mask: np.ndarray, affordances, count: int) -> dict:
    """*count* keypoints per non-empty channel, each uniform in the cell
    [c, c+1) x [r, r+1) of a mask pixel, except that in the last column (row)
    x (y) is drawn from [c, c+0.5) so that it rounds to a pixel inside the
    image. ``metrics.keypoint_fixations`` rounds positions without clamping
    and raises on the rest of that range (ROADMAP item 5); the benchmark
    measures workloads on which no operation fails and reports that defect
    from a separate probe (``edge_keypoint_probe``)."""
    H, W = mask.shape[:2]
    points = {}
    for ch, name in enumerate(affordances):
        rows, cols = np.nonzero(mask[:, :, ch])
        if rows.size == 0:
            continue
        picks = rng.integers(rows.size, size=count)
        points[name] = [
            [_in_cell(cols[i], W, rng.random()), _in_cell(rows[i], H, rng.random())]
            for i in picks
        ]
    return points


def _in_cell(cell: int, size: int, u: float) -> float:
    return float(cell + (u * 0.5 if cell == size - 1 else u))


def edge_keypoint_probe(item: data.ManifestItem, image_size) -> data.ManifestItem:
    """A copy of keypoint *item* whose first keypoint is moved to the far
    corner of the last pixel cell, (W - 0.25, H - 0.25): inside the range
    ``data.densify`` accepts, and rounded to (W, H) by
    ``metrics.keypoint_fixations``."""
    H, W = image_size
    points = {name: [list(p) for p in pts] for name, pts in item.target["points"].items()}
    first = next(iter(points))
    points[first][0] = [W - 0.25, H - 0.25]
    return data.ManifestItem(
        item_id=item.item_id + "-edge",
        object_id=item.object_id,
        features=item.features,
        target={"kind": "keypoints", "points": points},
    )


def tree_digest(root: Path) -> str:
    """sha256 over every file under *root* (relative path and bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()

"""Ground-truth handling: dense targets, keypoint densification, dataset
manifests, and the one-shot train / seen / unseen split machinery.

A manifest is a single JSON document::

    {
      "affordances": ["grasp", "cut", ...],
      "objects": [{"id": "bowl", "novel": false}, ...],
      "items": [
        {"id": "bowl-000", "object": "bowl", "features": "feats/bowl-000.ooal",
         "target": {"kind": "mask", "path": "targets/bowl.ooal"}},
        {"id": "axe-003", "object": "axe", "features": "feats/axe-003.ooal",
         "target": {"kind": "keypoints",
                    "points": {"cut": [[40, 12], [41, 13]]}}}
      ]
    }

Relative paths resolve against the manifest's directory. Keypoint targets
are densified on load with a Gaussian kernel (sigma configurable); mask
targets are stored in the shared binary container with a single L = H*W
"layer" of N channels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .container import CorruptionError
from .features import FeatureStack, load_features

DENSE_BINARY = "dense-binary"
DENSIFIED_SPARSE = "densified-sparse"

DEFAULT_SIGMA = 10.0


@dataclass(frozen=True)
class AffordanceTarget:
    """Per-pixel, per-affordance ground truth, values in [0, 1].

    ``kind`` records provenance: exact binary masks or keypoints densified
    with a Gaussian kernel.
    """

    M: np.ndarray = field(repr=False)
    kind: str = DENSE_BINARY

    def __post_init__(self):
        M = np.asarray(self.M, dtype=np.float64)
        if M.ndim != 3:
            raise ValueError(f"target must be H x W x N, got {M.shape}")
        if not np.all(np.isfinite(M)) or M.min() < 0.0 or M.max() > 1.0:
            raise ValueError("target values must be finite and in [0, 1]")
        if self.kind == DENSE_BINARY and not np.all((M == 0.0) | (M == 1.0)):
            raise ValueError("dense-binary target has non-binary entries")
        if self.kind not in (DENSE_BINARY, DENSIFIED_SPARSE):
            raise ValueError(f"unknown target kind {self.kind!r}")
        object.__setattr__(self, "M", M)

    @property
    def shape(self):
        return self.M.shape


@dataclass(frozen=True)
class KeypointAnnotation:
    """Per-affordance pixel keypoints: name -> list of (x, y) positions."""

    points: dict[str, list[tuple[float, float]]]


def densify(
    kp: KeypointAnnotation,
    sigma: float,
    height: int,
    width: int,
    affordances,
) -> AffordanceTarget:
    """Sum an unnormalized Gaussian over each keypoint, then scale every
    channel by its own max (empty channels stay all-zero)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    affordances = list(affordances)
    unknown = set(kp.points) - set(affordances)
    if unknown:
        raise ValueError(f"keypoints for unknown affordances: {sorted(unknown)}")
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    M = np.zeros((height, width, len(affordances)))
    for ch, name in enumerate(affordances):
        # canonical accumulation order makes the output bit-identical under
        # any permutation of the keypoint list
        for x0, y0 in sorted(kp.points.get(name, [])):
            if not (0 <= x0 < width and 0 <= y0 < height):
                raise ValueError(f"keypoint ({x0}, {y0}) outside {width}x{height}")
            M[:, :, ch] += np.exp(-((xs - x0) ** 2 + (ys - y0) ** 2) / (2.0 * sigma**2))
        peak = M[:, :, ch].max()
        if peak > 0:
            M[:, :, ch] /= peak
    return AffordanceTarget(M=M, kind=DENSIFIED_SPARSE)


def save_target(target: AffordanceTarget, path) -> None:
    """Store a dense target in the shared container: one H*W x N layer,
    grid = (H, W), and an all-zero length-N summary slot."""
    H, W, N = target.M.shape
    with open(path, "wb") as fh:
        container.write_magic(fh)
        container.write_u32(fh, 1, H * W, N, H, W, H, W)
        container.write_f64(fh, target.M.reshape(H * W, N))
        container.write_f64(fh, np.zeros(N))


def load_target(path, kind: str = DENSE_BINARY) -> AffordanceTarget:
    with open(path, "rb") as fh:
        container.read_magic(fh)
        n_layers, L, N, h_p, w_p, H, W = container.read_u32(fh, 7)
        if n_layers != 1 or (h_p, w_p) != (H, W) or L != H * W:
            raise CorruptionError("not a dense target file")
        M = container.read_f64(fh, L * N).reshape(H, W, N)
        container.read_f64(fh, N)
        container.expect_eof(fh)
    try:
        return AffordanceTarget(M=M, kind=kind)
    except ValueError as exc:
        raise CorruptionError(str(exc)) from exc


@dataclass(frozen=True)
class ManifestItem:
    item_id: str
    object_id: str
    features: str
    target: dict


@dataclass(frozen=True)
class DatasetManifest:
    affordances: tuple[str, ...]
    objects: tuple[tuple[str, bool], ...]   # (object id, novel flag)
    items: tuple[ManifestItem, ...]
    root: Path = Path(".")

    def __post_init__(self):
        ids = [oid for oid, _ in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate object ids")
        known = set(ids)
        per_object: dict[str, int] = {oid: 0 for oid in ids}
        item_ids = set()
        for item in self.items:
            if item.object_id not in known:
                raise ValueError(f"item {item.item_id} references unknown object {item.object_id}")
            if item.item_id in item_ids:
                raise ValueError(f"duplicate item id {item.item_id}")
            item_ids.add(item.item_id)
            per_object[item.object_id] += 1
        for oid, _novel in self.objects:
            if per_object[oid] == 0:
                raise ValueError(f"object {oid} has no items")

    def base_objects(self) -> list[str]:
        return [oid for oid, novel in self.objects if not novel]

    def novel_objects(self) -> list[str]:
        return [oid for oid, novel in self.objects if novel]

    def items_of(self, object_id: str) -> list[ManifestItem]:
        return [it for it in self.items if it.object_id == object_id]

    def resolve(self, rel: str) -> Path:
        return (self.root / rel).resolve()


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {
        "affordances": list(manifest.affordances),
        "objects": [{"id": oid, "novel": novel} for oid, novel in manifest.objects],
        "items": [
            {
                "id": it.item_id,
                "object": it.object_id,
                "features": it.features,
                "target": it.target,
            }
            for it in manifest.items
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"manifest {path} must be a JSON object")
    try:
        manifest = DatasetManifest(
            affordances=tuple(doc["affordances"]),
            objects=tuple((o["id"], bool(o["novel"])) for o in doc["objects"]),
            items=tuple(
                ManifestItem(
                    item_id=i["id"],
                    object_id=i["object"],
                    features=i["features"],
                    target=i["target"],
                )
                for i in doc["items"]
            ),
            root=path.parent,
        )
    except KeyError as exc:
        raise ValueError(f"manifest {path} missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"manifest {path} malformed: {exc}") from exc
    for item in manifest.items:
        if not isinstance(item.target, dict):
            raise ValueError(f"manifest {path}: target of item {item.item_id} must be an object")
        feat = manifest.resolve(item.features)
        if not feat.exists():
            raise ValueError(f"feature file {feat} for item {item.item_id} not found")
        if item.target.get("kind") == "mask":
            tpath = manifest.resolve(item.target["path"])
            if not tpath.exists():
                raise ValueError(f"target file {tpath} for item {item.item_id} not found")
    return manifest


@dataclass(frozen=True)
class LoadedItem:
    item_id: str
    object_id: str
    stack: FeatureStack
    target: AffordanceTarget


def load_item(
    manifest: DatasetManifest, item: ManifestItem, sigma: float = DEFAULT_SIGMA
) -> LoadedItem:
    stack = load_features(manifest.resolve(item.features))
    record = item.target
    kind = record.get("kind")
    if kind == "mask":
        target = load_target(manifest.resolve(record["path"]))
    elif kind == "keypoints":
        H, W = stack.image_size
        kp = KeypointAnnotation(
            points={name: [tuple(p) for p in pts] for name, pts in record["points"].items()}
        )
        target = densify(kp, record.get("sigma", sigma), H, W, manifest.affordances)
    else:
        raise ValueError(f"item {item.item_id}: unknown target kind {kind!r}")
    if target.shape[2] != len(manifest.affordances):
        raise ValueError(
            f"item {item.item_id}: target has {target.shape[2]} channels, "
            f"manifest lists {len(manifest.affordances)} affordances"
        )
    return LoadedItem(item.item_id, item.object_id, stack, target)


def build_oneshot_trainset(manifest: DatasetManifest, seed: int) -> list[ManifestItem]:
    """One item per base object, drawn uniformly with one generator.

    Draw rule (the reference tests regenerate it): a single
    ``numpy.random.default_rng(seed)`` produces ``rng.integers(len(items))``
    for each base object in manifest order.
    """
    rng = np.random.default_rng(seed)
    chosen = []
    for oid in manifest.base_objects():
        items = manifest.items_of(oid)
        if not items:
            raise ValueError(f"base object {oid} has no items")
        chosen.append(items[int(rng.integers(len(items)))])
    return chosen


def split_eval_sets(manifest: DatasetManifest, trainset) -> tuple[list[ManifestItem], list[ManifestItem]]:
    """-> (seen, unseen): base-object items minus the one-shot training
    items, and all novel-object items."""
    train_ids = {it.item_id for it in trainset}
    seen = [
        it
        for oid in manifest.base_objects()
        for it in manifest.items_of(oid)
        if it.item_id not in train_ids
    ]
    unseen = [it for oid in manifest.novel_objects() for it in manifest.items_of(oid)]
    return seen, unseen

"""Ground-truth handling: dense targets, keypoint densification, dataset
manifests, and the one-shot train / seen / unseen split machinery.

A manifest is a single JSON document::

    {
      "affordances": ["grasp", "cut", ...],
      "objects": [{"id": "bowl", "novel": false}, ...],
      "items": [
        {"id": "bowl-000", "object": "bowl", "features": "feats/bowl-000.ooal",
         "target": {"kind": "mask", "path": "targets/bowl.ooal"}},
        {"id": "cup-001", "object": "cup", "features": "feats/cup-001.ooal",
         "target": {"kind": "mask", "path": "cup.ooal",
                    "target_kind": "densified-sparse"}},
        {"id": "axe-003", "object": "axe", "features": "feats/axe-003.ooal",
         "target": {"kind": "keypoints",
                    "points": {"cut": [[40, 12], [41, 13]]}}}
      ]
    }

Relative paths resolve against the manifest's directory. Keypoint targets
are densified on load with a Gaussian kernel (sigma configurable); mask
targets are stored in the shared binary container with a single L = H*W
"layer" of N channels. A mask record's optional ``target_kind`` says what
its file holds: "dense-binary" (the default, 0/1 entries) or
"densified-sparse" (values in [0, 1], as ``affseg densify`` writes them).
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .container import CorruptionError, FormatError
from .features import FeatureStack, load_features

DENSE_BINARY = "dense-binary"
DENSIFIED_SPARSE = "densified-sparse"
TARGET_KINDS = (DENSE_BINARY, DENSIFIED_SPARSE)

DEFAULT_SIGMA = 10.0
# keypoint Gaussian width in pixels. A keypoint lies under 1 px from its nearest
# pixel on each axis (x < W may lie almost 1 px past the last), where at the
# floor its Gaussian keeps more than exp(-1 / sigma**2) = exp(-400), about
# 2e-174; below sigma 0.037 it can underflow to 0 at every pixel. Far above the
# ceiling sigma**2 overflows
SIGMA_RANGE = (0.05, 1e6)


@dataclass(frozen=True)
class AffordanceTarget:
    """Per-pixel, per-affordance ground truth, values in [0, 1].

    ``kind`` records provenance: exact binary masks or keypoints densified
    with a Gaussian kernel. ``M`` is a read-only view of the array it is
    given, not a copy, so one target can be shared by the items that name
    it. It keeps that array's layout: C order for a target read from a file,
    channel-major (a view of an N x H x W buffer) for one built by
    :func:`densify`.
    """

    M: np.ndarray = field(repr=False)
    kind: str = DENSE_BINARY

    def __post_init__(self):
        M = np.asarray(self.M, dtype=np.float64)
        if M.ndim != 3:
            raise ValueError(f"target must be H x W x N, got {M.shape}")
        if M.size == 0:
            raise ValueError(f"target of shape {M.shape} is empty")
        # all 0 or 1 is already finite and in [0, 1], so a binary target skips
        # the range test; min and max propagate NaN, and +-inf is outside it
        binary = self.kind == DENSE_BINARY and np.all((M == 0.0) | (M == 1.0))
        if not binary and not (M.min() >= 0.0 and M.max() <= 1.0):
            raise ValueError("target values must be finite and in [0, 1]")
        if self.kind == DENSE_BINARY and not binary:
            raise ValueError("dense-binary target has non-binary entries "
                             f"(soft values load as target_kind {DENSIFIED_SPARSE!r})")
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        M = M.view()
        M.flags.writeable = False
        object.__setattr__(self, "M", M)

    @property
    def shape(self):
        return self.M.shape

    @functools.cached_property
    def mask(self) -> np.ndarray:
        """``M >= 0.5`` as a read-only, C-contiguous N x H x W bool array,
        built on first use. The compare runs in M's memory order; a C-order
        M's mask is then copied channel-major a byte per pixel, and a
        channel-major M's needs no copy."""
        mask = np.ascontiguousarray((self.M >= 0.5).transpose(2, 0, 1))
        mask.flags.writeable = False
        return mask

    @functools.cached_property
    def mask_count(self) -> np.ndarray:
        """The number of pixels of each channel of :attr:`mask`."""
        return np.count_nonzero(self.mask.reshape(len(self.mask), -1), axis=1)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def parse_points(points, where: str) -> dict[str, list[tuple[float, float]]]:
    """A keypoints ``points`` object (affordance -> [[x, y], ...]) as
    ``{name: [(x, y), ...]}``; anything else is a ValueError naming *where*."""
    if not isinstance(points, dict):
        raise ValueError(f"{where}: keypoints need a 'points' object of [[x, y], ...] lists")
    for name, pts in points.items():
        if not isinstance(pts, (list, tuple)) or not all(
            isinstance(pt, (list, tuple)) and len(pt) == 2 and all(map(_is_number, pt))
            for pt in pts
        ):
            raise ValueError(f"{where}: points of {name!r} must be a list of [x, y] numbers")
    return {k: [tuple(pt) for pt in v] for k, v in points.items()}


def parse_affordances(names, where: str) -> tuple[str, ...]:
    """An ``affordances`` value as a tuple of names; anything but a non-empty
    list of distinct strings is a ValueError naming *where*."""
    if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names)):
        raise ValueError(f"{where}: affordances must be a non-empty list of distinct strings")
    return tuple(names)


def check_sigma(sigma, where: str = "densify") -> None:
    """ValueError naming *where* unless *sigma* is a number in SIGMA_RANGE."""
    lo, hi = SIGMA_RANGE
    if not (_is_number(sigma) and lo <= sigma <= hi):
        raise ValueError(f"{where}: sigma must be a number in [{lo:g}, {hi:g}], got {sigma!r}")


def densify(
    points: dict,
    sigma: float,
    height: int,
    width: int,
    affordances,
) -> AffordanceTarget:
    """Sum an unnormalized Gaussian over each (x, y) keypoint of *points*, then
    scale every channel by its own max (empty channels stay all-zero). The
    H x W x N result is a view of an N x H x W buffer, channel-major like a
    :class:`~affseg.decoder.Prediction`; a buffer numpy cannot allocate raises
    ValueError naming its size."""
    check_sigma(sigma)
    affordances = list(affordances)
    unknown = set(points) - set(affordances)
    if unknown:
        raise ValueError(f"keypoints for unknown affordances: {sorted(unknown)}")
    try:  # before the coordinate rows, which are as long as the sides
        M = np.empty((len(affordances), height, width))
        g = np.empty((height, width))
    except (ValueError, MemoryError):
        raise ValueError(f"a {len(affordances)} x {height} x {width} target is more than "
                         f"numpy can allocate") from None
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    # IEEE division is sign-symmetric: d / -(2 sigma^2) == -d / (2 sigma^2)
    neg_denom = -(2.0 * sigma**2)
    for acc, name in zip(M, affordances):
        # canonical accumulation order makes the output bit-identical under
        # any permutation of the keypoint list
        pts = sorted(points.get(name, []))
        if not pts:
            acc.fill(0.0)
            continue
        for k, (x0, y0) in enumerate(pts):
            if not (0 <= x0 < width and 0 <= y0 < height):
                raise ValueError(f"keypoint ({x0}, {y0}) outside {width}x{height}")
            # the first Gaussian goes straight into the channel: 0.0 + e == e
            # for every e that exp returns, as it never returns -0.0
            out = g if k else acc
            np.copyto(out, (xs - x0) ** 2)
            out += (ys - y0) ** 2
            np.divide(out, neg_denom, out=out)
            np.exp(out, out=out)
            if k:
                acc += g
        acc /= acc.max()  # positive: SIGMA_RANGE keeps each Gaussian's peak above 0
    return AffordanceTarget(M=M.transpose(1, 2, 0), kind=DENSIFIED_SPARSE)


def save_target(target: AffordanceTarget, path) -> None:
    """Store a dense target as a grid file: one H*W x N layer, grid = (H, W),
    and an all-zero length-N summary."""
    H, W, N = target.M.shape
    container.write_grid(path, (target.M.reshape(H * W, N),), np.zeros(N), (H, W), (H, W))


def _check_target_header(n_layers, L, N, h_p, w_p, H, W) -> None:
    if n_layers != 1 or (h_p, w_p) != (H, W) or L != H * W:
        raise CorruptionError("not a dense target file")
    if min(N, H, W) < 1:
        raise CorruptionError(f"implausible header ({H}x{W} pixels, {N} channels)")


def load_target(path, kind: str = DENSE_BINARY) -> AffordanceTarget:
    layers, _, _, image_size = container.read_grid(path, _check_target_header)
    try:
        return AffordanceTarget(M=layers[0].reshape(*image_size, -1), kind=kind)
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
    # relative path -> its join onto root, filled by resolve
    _paths: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root).resolve())
        object.__setattr__(self, "_paths", {})
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
        """*rel* joined onto the manifest directory. The join is made on the
        first call for *rel* and kept, so every later call, such as each
        load of the item that names it, returns the same object. Eval threads
        that race on a new *rel* may each join it; the table keeps one."""
        path = self._paths.get(rel)
        if path is None:
            path = self._paths[rel] = self.root / rel
        return path


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


def parse_target(record, where: str, sigma: float = DEFAULT_SIGMA):
    """An item's ``target`` record as ``(path, target_kind, None, None)`` for a
    mask or ``(None, None, points, sigma)`` for keypoints, whose own ``sigma``
    overrides *sigma*; anything else is a ValueError naming *where*. Only
    :func:`load_manifest` checks that ``path`` names a file, once per load."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: target must be an object")
    kind, path = record.get("kind"), record.get("path")
    if kind == "keypoints":
        sigma = record.get("sigma", sigma)
        check_sigma(sigma, where)
        return None, None, parse_points(record.get("points"), where), sigma
    if kind != "mask":
        raise ValueError(f"{where}: unknown target kind {kind!r}")
    target_kind = record.get("target_kind", DENSE_BINARY)
    if target_kind not in TARGET_KINDS:
        raise ValueError(f"{where}: mask target_kind must be one of {TARGET_KINDS}, "
                         f"got {target_kind!r}")
    return path, target_kind, None, None


def _is_id(v) -> bool:
    # ids appear unquoted in one-line messages, so they may hold no line break
    return isinstance(v, str) and v.isprintable()


def read_json(path, what: str):
    """The JSON document in the file at *path*; bad bytes or syntax raise ValueError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    doc = read_json(path, "manifest")
    if not isinstance(doc, dict):
        raise ValueError(f"manifest {path} must be a JSON object")
    try:
        affordances = parse_affordances(doc["affordances"], f"manifest {path}")
        objects = tuple((o["id"], o["novel"]) for o in doc["objects"])
        items = tuple(ManifestItem(i["id"], i["object"], i["features"], i["target"])
                      for i in doc["items"])
    except KeyError as exc:
        raise ValueError(f"manifest {path} missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"manifest {path} malformed: {exc}") from exc
    for oid, novel in objects:
        if not (_is_id(oid) and isinstance(novel, bool)):
            raise ValueError(f"manifest {path}: object {oid!r} needs a string id and a "
                             f"boolean novel, got novel {novel!r}")
    for item in items:
        if not (_is_id(item.item_id) and _is_id(item.object_id)):
            raise ValueError(f"manifest {path}: item {item.item_id!r} needs a string id and "
                             f"object, got object {item.object_id!r}")
    try:
        manifest = DatasetManifest(affordances, objects, items, root=path.parent)
    except ValueError as exc:
        raise ValueError(f"manifest {path}: {exc}") from exc
    for item in manifest.items:
        where = f"manifest {path}: item {item.item_id}"
        if not (isinstance(item.features, str) and os.path.isfile(manifest.resolve(item.features))):
            raise ValueError(f"{where}: feature file {item.features!r} not found")
        rel, _, points, _ = parse_target(item.target, where)
        if points is None and not (isinstance(rel, str) and os.path.isfile(manifest.resolve(rel))):
            raise ValueError(f"{where}: mask target file {rel!r} not found")
    return manifest


@dataclass(frozen=True)
class LoadedItem:
    item_id: str
    object_id: str
    stack: FeatureStack
    target: AffordanceTarget
    points: dict[str, list[tuple[float, float]]] | None = None  # keypoint targets only


def load_item(
    manifest: DatasetManifest,
    item: ManifestItem,
    sigma: float = DEFAULT_SIGMA,
    target: AffordanceTarget | None = None,
) -> LoadedItem:
    """The features and target of *item*. A *target* given is the one an
    equal ``target`` record loaded to, at the same *sigma*, for an earlier
    item; it is used as is, not read or densified again, where it has the
    size of this item's image (a keypoint record densifies at the image
    size). Either way the target is checked against the manifest's channels
    and the image size."""
    where = context = f"item {item.item_id}"
    rel, target_kind, points, sigma = parse_target(item.target, where, sigma)
    try:
        stack = load_features(manifest.resolve(item.features))
        if target is None or target.shape[:2] != stack.image_size:
            if points is None:
                path = manifest.resolve(rel)
                context += f": mask target {path} read as target_kind {target_kind!r}"
                target = load_target(path, target_kind)
            else:
                target = densify(points, sigma, *stack.image_size, manifest.affordances)
    except (FormatError, CorruptionError, ValueError) as exc:
        raise type(exc)(f"{context}: {exc}") from exc
    if target.shape[2] != len(manifest.affordances):
        raise ValueError(
            f"{where}: target has {target.shape[2]} channels, "
            f"manifest lists {len(manifest.affordances)} affordances"
        )
    (H, W), (h, w) = target.shape[:2], stack.image_size
    if (H, W) != (h, w):
        raise ValueError(f"{where}: target is {H}x{W} pixels, features are of a {h}x{w} image")
    return LoadedItem(item.item_id, item.object_id, stack, target, points)


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

"""Objective, analytic gradients, SGD loop, and checkpointing.

Every gradient is hand-derived and exact; the test suite verifies each
parameter group against central finite differences. Training is plain SGD
(no momentum, no weight decay), one image per step, fully deterministic
given the config seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import container, decoder, fusion, prompt
from .container import CorruptionError, FormatError
from .data import AffordanceTarget, LoadedItem
from .decoder import DecoderParams, Prediction
from .features import ClassTokenTable, FeatureStack
from .fusion import Embedder, FusionParams
from .prompt import ContextVectors, StubTextEncoder

BCE_EPS = 1e-12

ABLATIONS = ("tpl", "mlff", "td", "ctm")


@dataclass
class ModelParams:
    """All trainable state; the text encoder and feature source stay frozen."""

    ctx: ContextVectors
    fp: FusionParams
    emb: Embedder
    dp: DecoderParams


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    iterations: int = 2000
    seed: int = 0
    p: int = 8
    j: int = 3
    t: int = 2
    C: int = 64
    C_t: int = 64
    log_every: int = 100

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.p < 1 or self.j < 1 or self.t < 0:
            raise ValueError("need p >= 1, j >= 1, t >= 0")


def load_config(path) -> TrainConfig:
    """Parse a JSON config file whose keys mirror TrainConfig."""
    with open(path) as fh:
        return _config_from_dict(json.load(fh))


def _config_from_dict(doc) -> TrainConfig:
    """TrainConfig from a JSON object; unknown keys or ill-typed values raise ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    types = {f.name: type(f.default) for f in fields(TrainConfig)}
    unknown = set(doc) - set(types)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name, value in doc.items():
        allowed = (int, float) if types[name] is float else types[name]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"config {name} must be {types[name].__name__}, got {value!r}")
    return TrainConfig(**doc)


def _check_ablation(ablate: str | None) -> None:
    if ablate is not None and ablate not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablate!r}, expected one of {ABLATIONS}")


def build_text_pipeline(cfg: TrainConfig, affordances) -> tuple[ClassTokenTable, StubTextEncoder]:
    """Frozen token table and text encoder, derived only from names + seed."""
    from .features import synth_text_tokens

    table = synth_text_tokens(affordances, cfg.C_t, cfg.seed)
    enc = StubTextEncoder.create(cfg.C_t, cfg.C, cfg.seed)
    return table, enc


def init_model(cfg: TrainConfig, feature_dim: int) -> ModelParams:
    return ModelParams(
        ctx=prompt.init_context(cfg.p, cfg.C_t, cfg.seed),
        fp=fusion.init_fusion(cfg.j, feature_dim, cfg.seed),
        emb=fusion.init_embedder(feature_dim, cfg.C, cfg.seed),
        dp=decoder.init_decoder(cfg.t, cfg.C, feature_dim, cfg.seed),
    )


# ---------------------------------------------------------------------------
# parameter tree


def param_items(mp: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Stable (name, array) listing of every trainable tensor."""
    items = [("ctx.vectors", mp.ctx.vectors)]
    for i, P in enumerate(mp.fp.proj):
        items.append((f"fusion.proj.{i}", P))
    items.append(("fusion.alpha_logits", mp.fp.alpha_logits))
    items.append(("embedder.weight", mp.emb.weight))
    items.append(("embedder.bias", mp.emb.bias))
    for k, layer in enumerate(mp.dp.layers):
        for name in ("wq", "wk", "wv", "wc", "w1", "b1", "w2", "b2"):
            items.append((f"decoder.{k}.{name}", getattr(layer, name)))
    return items


def zero_gradients(mp: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in param_items(mp)}


def params_checksum(mp: ModelParams) -> bytes:
    import hashlib

    h = hashlib.sha256()
    for name, arr in param_items(mp):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.digest()


# ---------------------------------------------------------------------------
# forward / loss / backward


class ForwardCache(NamedTuple):
    prediction: Prediction
    text_cache: prompt.TextCache | None
    fuse_cache: fusion.FuseCache | None
    embed_cache: fusion.EmbedCache
    decode_caches: list
    predict_cache: decoder.PredictCache
    ablate: str | None


def forward(
    mp: ModelParams,
    enc: StubTextEncoder,
    table: ClassTokenTable,
    stack: FeatureStack,
    ablate: str | None = None,
    text_override: np.ndarray | None = None,
) -> tuple[Prediction, ForwardCache]:
    """Full model pass on one feature stack.

    ``ablate`` disables one module: "tpl" drops the learned context, "mlff"
    bypasses fusion (raw last layer), "td" skips the decoder, "ctm" forces
    the foreground gate to one. ``text_override`` substitutes precomputed
    text embeddings for the prompt pipeline.
    """
    _check_ablation(ablate)
    if text_override is not None:
        text = np.asarray(text_override, dtype=np.float64)
        text_cache = None
    else:
        ctx = None if ablate == "tpl" else mp.ctx
        text, text_cache = prompt.encode_texts_cached(ctx, table, enc)
    if ablate == "mlff":
        fused, fuse_cache = stack.last, None
    else:
        fused, fuse_cache = fusion.fuse_cached(stack, mp.fp)
    visual, embed_cache = fusion.embed_cached(fused, mp.emb)
    if ablate == "td":
        text_out, decode_caches = text, []
    else:
        text_out, decode_caches = decoder.decode_cached(
            text, visual, stack.cls, mp.dp, use_gate=(ablate != "ctm")
        )
    pred, predict_cache = decoder.predict_cached(
        visual, text_out, stack.grid, stack.image_size
    )
    return pred, ForwardCache(
        pred, text_cache, fuse_cache, embed_cache, decode_caches, predict_cache, ablate
    )


def bce_loss(pred: Prediction, target: AffordanceTarget) -> float:
    """Mean binary cross entropy over every pixel and affordance channel."""
    s = pred.upsampled
    y = target.M
    if s.shape != y.shape:
        raise ValueError(f"prediction {s.shape} vs target {y.shape}")
    terms = y * np.log(s + BCE_EPS) + (1.0 - y) * np.log(1.0 - s + BCE_EPS)
    return float(-terms.mean())


def _bce_score_grad(scores: np.ndarray, target: np.ndarray) -> np.ndarray:
    n = scores.size
    return (-target / (scores + BCE_EPS) + (1.0 - target) / (1.0 - scores + BCE_EPS)) / n


def backward(
    mp: ModelParams,
    item: LoadedItem,
    enc: StubTextEncoder,
    table: ClassTokenTable,
    ablate: str | None = None,
    text_override: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for every trainable tensor.

    Disabled or bypassed parameter groups get zero gradients so the
    optimizer step is uniform across ablations.
    """
    pred, cache = forward(mp, enc, table, item.stack, ablate, text_override)
    loss = bce_loss(pred, item.target)

    grads = zero_gradients(mp)
    d_scores = _bce_score_grad(pred.upsampled, item.target.M)
    d_visual, d_text_out = decoder.predict_backward(cache.predict_cache, d_scores)

    if cache.decode_caches:
        layer_grads, d_text, d_vis2 = decoder.decode_backward(cache.decode_caches, d_text_out)
        d_visual = d_visual + d_vis2
        for k, g in enumerate(layer_grads):
            for name, val in g.items():
                grads[f"decoder.{k}.{name}"] = val
    else:
        d_text = d_text_out

    d_w, d_b, d_fused = fusion.embed_backward(cache.embed_cache, d_visual)
    grads["embedder.weight"] = d_w
    grads["embedder.bias"] = d_b

    if cache.fuse_cache is not None:
        d_proj, d_logits = fusion.fuse_backward(cache.fuse_cache, d_fused)
        for i, g in enumerate(d_proj):
            grads[f"fusion.proj.{i}"] = g
        grads["fusion.alpha_logits"] = d_logits

    if cache.text_cache is not None and cache.text_cache.count > 0:
        grads["ctx.vectors"] = prompt.encode_texts_backward(cache.text_cache, d_text)

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ArithmeticError(f"non-finite gradient for parameter {name}")
    return loss, grads


def sgd_step(mp: ModelParams, grads: dict[str, np.ndarray], lr: float) -> ModelParams:
    """Plain descent update in place: each array of ``param_items(mp)`` becomes
    ``arr - lr * g``, and the same ``mp`` is returned.

    Every gradient shape is checked before any array changes, so a bad dict
    leaves the model as it was. A non-finite result raises ArithmeticError
    naming the parameter; the model is then unusable.
    """
    items = param_items(mp)
    for name, arr in items:
        if grads[name].shape != arr.shape:
            raise ValueError(f"gradient shape {grads[name].shape} != param {arr.shape} for {name}")
    with np.errstate(over="ignore", invalid="ignore"):
        for name, arr in items:
            arr -= lr * grads[name]
            if not np.isfinite(arr).all():
                raise ArithmeticError(f"non-finite value in parameter {name} after the step")
    return mp


# ---------------------------------------------------------------------------
# training loop

LossLog = list[tuple[int, float]]


def train(
    cfg: TrainConfig,
    trainset: list[LoadedItem],
    affordances,
    ablate: str | None = None,
    text_override: np.ndarray | None = None,
) -> tuple[ModelParams, LossLog]:
    """One-shot training: each step draws one item from a seeded shuffle,
    runs forward/backward, and applies SGD. Bitwise deterministic."""
    if not trainset:
        raise ValueError("empty trainset")
    _check_ablation(ablate)
    feature_dim = trainset[0].stack.feature_dim
    table, enc = build_text_pipeline(cfg, affordances)
    params = init_model(cfg, feature_dim)
    order_rng = np.random.default_rng([cfg.seed, 0x5472])

    log: LossLog = []
    order = np.empty(0, dtype=np.intp)
    for i in range(cfg.iterations):
        k = i % len(trainset)
        if k == 0:
            order = order_rng.permutation(len(trainset))
        item = trainset[order[k]]
        loss, grads = backward(params, item, enc, table, ablate, text_override)
        sgd_step(params, grads, cfg.lr)
        if (i + 1) % cfg.log_every == 0 or i == cfg.iterations - 1:
            log.append((i + 1, loss))
    return params, log


def save_loss_log(log: LossLog, path) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,loss\n")
        for it, loss in log:
            fh.write(f"{it},{loss!r}\n")


# ---------------------------------------------------------------------------
# checkpoints


@dataclass(frozen=True)
class Checkpoint:
    """Self-contained trained model: parameters, the frozen text projection,
    the vocabulary it was trained with, and the exact config."""

    params: ModelParams
    enc: StubTextEncoder
    affordances: tuple[str, ...]
    cfg: TrainConfig
    ablate: str | None = None

    def text_table(self) -> ClassTokenTable:
        table, _ = build_text_pipeline(self.cfg, self.affordances)
        return table


CHECKPOINT_VERSION = 1


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Container framing: magic, uint32 manifest length, JSON manifest,
    then all arrays as float64 in manifest order."""
    names_arrays = param_items(ckpt.params) + [("text_encoder.proj", ckpt.enc.proj)]
    manifest = {
        "version": CHECKPOINT_VERSION,
        "config": {f.name: getattr(ckpt.cfg, f.name) for f in fields(TrainConfig)},
        "ablate": ckpt.ablate,
        "affordances": list(ckpt.affordances),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in names_arrays],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        container.write_magic(fh)
        container.write_u32(fh, len(blob))
        fh.write(blob)
        for _, arr in names_arrays:
            container.write_f64(fh, arr)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        container.read_magic(fh)
        (blob_len,) = container.read_u32(fh, 1)
        blob = fh.read(blob_len)
        if len(blob) != blob_len:
            raise CorruptionError("truncated checkpoint manifest")
        try:
            manifest = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"checkpoint manifest unreadable: {exc}") from exc
        version = manifest.get("version") if isinstance(manifest, dict) else None
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        try:
            config, affordances = manifest["config"], tuple(manifest["affordances"])
            entries = [(e["name"], tuple(e["shape"])) for e in manifest["arrays"]]
        except (KeyError, TypeError) as exc:
            raise CorruptionError(f"checkpoint manifest malformed: {exc!r}") from exc
        arrays = {}
        for name, shape in entries:
            if name in arrays:
                raise CorruptionError(f"checkpoint lists array {name} twice")
            if not all(isinstance(d, int) and d >= 0 for d in shape):
                raise CorruptionError(f"checkpoint array {name} has bad shape {list(shape)}")
            count = int(np.prod(shape)) if shape else 1
            arrays[name] = container.read_f64(fh, count).reshape(shape)
            if not np.isfinite(arrays[name]).all():
                raise CorruptionError(f"checkpoint array {name} has a non-finite value")
        container.expect_eof(fh)

    ablate = manifest.get("ablate")
    try:
        cfg = _config_from_dict(config)
        _check_ablation(ablate)
    except ValueError as exc:
        raise FormatError(f"checkpoint {exc}") from exc

    weight = arrays.get("embedder.weight")
    if weight is None or weight.ndim != 2:
        raise CorruptionError("checkpoint needs a 2-D array embedder.weight")
    params = init_model(cfg, weight.shape[0])
    slots = dict(param_items(params))
    slots["text_encoder.proj"] = proj = np.empty((cfg.C_t, cfg.C))
    unexpected = sorted(set(arrays) - set(slots))
    if unexpected:
        raise CorruptionError(f"checkpoint has unexpected arrays {unexpected}")
    for name, slot in slots.items():
        if name not in arrays:
            raise CorruptionError(f"checkpoint missing array {name}")
        if arrays[name].shape != slot.shape:
            raise ValueError(
                f"checkpoint array {name} has shape {arrays[name].shape}, expected {slot.shape}"
            )
        slot[...] = arrays[name]
    proj.flags.writeable = False
    enc = StubTextEncoder(proj=proj, seed=cfg.seed)
    return Checkpoint(params, enc, affordances, cfg, ablate)

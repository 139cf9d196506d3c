"""Objective, analytic gradients, SGD loop, and checkpointing.

Every gradient is hand-derived and exact; the test suite verifies each
parameter group against central finite differences. Training is plain SGD
(no momentum, no weight decay), one image per step, fully deterministic
given the config seed.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import container, decoder, fusion, prompt
from .container import CorruptionError, FormatError
from .data import AffordanceTarget, LoadedItem, parse_affordances, read_json
from .decoder import DecoderLayerParams, DecoderParams, Prediction
from .features import FeatureStack, synth_text_tokens
from .fusion import Embedder, FusionParams
from .prompt import StubTextEncoder


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All trainable state; the text encoder and feature source stay frozen.

    Built from one float64 vector ``theta`` and the dimensions *dims*, the
    (p, C_t, j, C_v, C, t) of :func:`param_shapes`: that table cuts ``theta``,
    in order, into the parameter objects, so every array is a view of
    ``theta``; a ``theta`` of another size raises ValueError. The objects are
    frozen and hold tuples, so a parameter can only change in place.
    A :class:`Checkpoint` makes ``theta`` and every array read-only.
    The model also owns the gradient vector that :func:`backward` fills,
    allocated on the first call; :func:`train` releases it when done.
    Models compare by identity; :func:`params_checksum` compares values.
    """

    theta: np.ndarray
    dims: tuple[int, int, int, int, int, int]
    gated: bool = True
    ctx: np.ndarray = field(init=False)  # p x C_t context matrix
    fp: FusionParams = field(init=False)
    emb: Embedder = field(init=False)
    dp: DecoderParams = field(init=False)

    def __post_init__(self):
        layout, stop = [], 0
        for name, shape in param_shapes(*self.dims):
            start, stop = stop, stop + math.prod(shape)
            layout.append((name, start, stop, shape))
        if np.shape(self.theta) != (stop,):
            raise ValueError(f"theta has shape {np.shape(self.theta)}, the model's is ({stop},)")
        items = {name: self.theta[a:b].reshape(shape) for name, a, b, shape in layout}
        views = iter(items.values())
        j, t = self.dims[2], self.dims[5]
        ctx = next(views)
        fp = FusionParams(tuple(itertools.islice(views, j)), next(views))
        emb = Embedder(next(views), next(views))
        # each layer's arrays come in DecoderLayerParams field order
        per_layer = len(fields(DecoderLayerParams))
        dp = DecoderParams(tuple(DecoderLayerParams(*itertools.islice(views, per_layer))
                                 for _ in range(t)), self.gated)
        for name, value in (("ctx", ctx), ("fp", fp), ("emb", emb), ("dp", dp),
                            ("_layout", tuple(layout)), ("_items", items), ("_grads", None)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and architecture; ``p``, ``j`` or ``t`` 0 leaves out the
    learned context, the fusion or the decoder, ``gate`` false the decoder's gate."""

    lr: float = 0.01
    iterations: int = 2000
    seed: int = 0
    p: int = 8
    j: int = 3
    t: int = 2
    C: int = 64
    C_t: int = 64
    log_every: int = 100
    gate: bool = True

    def __post_init__(self):
        # compared, not converted: an int past the largest float is refused, not an OverflowError
        if not 0 < self.lr <= sys.float_info.max:
            raise ValueError(f"lr must be positive and finite, got {self.lr!r}")
        for name, low in (("iterations", 0), ("seed", 0), ("p", 0), ("j", 0), ("t", 0),
                          ("C", 1), ("C_t", 1), ("log_every", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")


def load_config(path) -> TrainConfig:
    """Parse a JSON config file whose keys mirror TrainConfig."""
    return _config_from_dict(read_json(path, "config"))


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
        if isinstance(value, bool) != (types[name] is bool) or not isinstance(value, allowed):
            raise ValueError(f"config {name} must be {types[name].__name__}, got {value!r}")
    return TrainConfig(**doc)


def build_text_pipeline(cfg: TrainConfig, affordances) -> tuple[np.ndarray, StubTextEncoder]:
    """Frozen N x C_t class tokens, one row per affordance in order, and the
    text encoder, derived only from names + seed."""
    tokens = synth_text_tokens(affordances, cfg.C_t, cfg.seed)
    return tokens, StubTextEncoder.create(cfg.C_t, cfg.C, cfg.seed)


def init_model(cfg: TrainConfig, feature_dim: int) -> ModelParams:
    """The initial model of *cfg* on features *feature_dim* wide, drawn into
    ``theta`` in table order from one generator per group. The context and the
    FFN output branch start near zero (std 0.02), ``wc`` and ``w1`` scaled by
    fan-in, the fusion projections and attention maps near identity, the
    embedder an identity block plus noise (early features close to raw), the
    biases and fusion logits (uniform weights) at 0. A model that numpy cannot
    hold raises ValueError naming the config keys before any array is built:
    its parameters and its text projection, counted from :func:`param_shapes`
    without walking the fused or decoder layers."""
    def values(j, t):
        return sum(math.prod(shape) for _, shape in
                   param_shapes(cfg.p, cfg.C_t, j, feature_dim, cfg.C, t))

    base = values(0, 0)
    size = base + cfg.j * (values(1, 0) - base) + cfg.t * (values(0, 1) - base)
    container.check_array_size(size + cfg.C_t * cfg.C, f"config p {cfg.p}, C_t {cfg.C_t}, j "
                               f"{cfg.j}, C {cfg.C} and t {cfg.t} at feature dim {feature_dim}")
    mp = ModelParams(np.zeros(size), (cfg.p, cfg.C_t, cfg.j, feature_dim, cfg.C, cfg.t),
                     cfg.gate)
    rngs = {group: np.random.default_rng([cfg.seed, key]) for group, key in
            (("ctx", 0xC0DE), ("fusion", 0xF05E), ("embedder", 0xE89D), ("decoder", 0xDEC0))}
    for name, arr in param_items(mp):  # the biases and fusion logits stay 0
        group, kind = (part for part in name.split(".") if not part.isdigit())
        normal = rngs[group].standard_normal
        if kind in ("vectors", "w2"):
            arr[...] = 0.02 * normal(arr.shape)
        elif kind in ("wc", "w1"):
            arr[...] = normal(arr.shape) / math.sqrt(len(arr))
        elif kind in ("proj", "wq", "wk", "wv"):
            arr[...] = np.eye(len(arr)) + 0.01 * normal(arr.shape)
        elif kind == "weight":
            m = min(arr.shape)
            arr[...] = 0.01 * normal(arr.shape)
            arr[:m, :m] += np.eye(m)
    return mp


# ---------------------------------------------------------------------------
# parameter tree


def param_shapes(p: int, C_t: int, j: int, C_v: int, C: int,
                 t: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """The one table of (name, shape) of every trainable tensor, in order, of a
    model with a p x C_t context, j fused layers of width C_v, embedding width
    C and t decoder layers; :class:`ModelParams` cuts its ``theta`` by it."""
    yield "ctx.vectors", (p, C_t)
    for i in range(j):
        yield f"fusion.proj.{i}", (C_v, C_v)
    yield "fusion.alpha_logits", (j,)
    yield "embedder.weight", (C_v, C)
    yield "embedder.bias", (C,)
    layer = {"wq": (C, C), "wk": (C, C), "wv": (C, C), "wc": (C_v, C),
             "w1": (C, 4 * C), "b1": (4 * C,), "w2": (4 * C, C), "b2": (C,)}
    for k in range(t):
        for name, shape in layer.items():
            yield f"decoder.{k}.{name}", shape


def param_items(mp: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Stable (name, array) listing of every trainable tensor."""
    return list(mp._items.items())


class Gradients(Mapping):
    """One gradient per trainable tensor, each a view into the flat vector
    ``flat``, which is laid out like ``ModelParams.theta``.

    ``tree`` holds the same views as a :class:`ModelParams` over ``flat``,
    the parameter objects that the layer backward functions write into
    (their ``out``). Assigning to an entry copies the value into its slot; a
    value of another shape raises ValueError naming the parameter and is
    never broadcast.
    """

    def __init__(self, mp: ModelParams, flat: np.ndarray):
        self.layout = mp._layout
        self.flat = flat
        self.tree = ModelParams(flat, mp.dims, mp.gated)
        self._slots = self.tree._items

    def __getitem__(self, name: str) -> np.ndarray:
        return self._slots[name]

    def __iter__(self):
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def __setitem__(self, name: str, value) -> None:
        slot = self._slots[name]
        if np.shape(value) != slot.shape:
            raise ValueError(f"gradient shape {np.shape(value)} != param {slot.shape} for {name}")
        slot[...] = value


def zero_gradients(mp: ModelParams) -> Gradients:
    """An all-zero :class:`Gradients` for *mp*."""
    return Gradients(mp, np.zeros(mp.theta.size))


def _first_nonfinite(layout, flat: np.ndarray) -> str:
    """Name of the parameter whose slot holds the first non-finite value of *flat*."""
    bad = int(np.argmin(np.isfinite(flat)))
    return next(name for name, a, b, _ in layout if a <= bad < b)


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
    text_cache: prompt.TextCache
    fuse_cache: fusion.FuseCache
    embed_cache: fusion.EmbedCache
    decode_caches: list
    predict_cache: decoder.PredictCache
    ablate: None  # always None, read by nothing; goes when forward records a tape


def forward(
    mp: ModelParams,
    enc: StubTextEncoder,
    table: np.ndarray,
    stack: FeatureStack,
    scores: bool = True,
) -> tuple[Prediction, ForwardCache]:
    """Full model pass on one feature stack: the class prompts from the
    N x C_t class tokens *table*, fusion and embedding, the decoder, then the
    prediction head, whose pixel logits are squashed to scores only with
    *scores* (:func:`backward` passes False)."""
    text, text_cache = prompt.encode_texts_cached(mp.ctx, table, enc)
    fused, fuse_cache = fusion.fuse_cached(stack, mp.fp)
    visual, embed_cache = fusion.embed_cached(fused, mp.emb)
    text_out, decode_caches = decoder.decode_cached(text, visual, stack.cls, mp.dp)
    pred, predict_cache = decoder.predict_cached(visual, text_out, stack.grid, stack.image_size,
                                                 scores)
    return pred, ForwardCache(
        pred, text_cache, fuse_cache, embed_cache, decode_caches, predict_cache, None
    )


def bce_loss_and_grad(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross entropy of pixel logits z against targets y,
    max(z, 0) - y*z + log(1 + exp(-|z|)), finite for finite z, and its
    gradient in z, (sigmoid(z) - y) / n, in C order for the upsampling adjoint.
    Both come from one C-ordered copy of z and one e = exp(-|z|), so the mean
    is taken in one order whatever the layouts; the terms follow the one-line
    expression and the sigmoid :func:`decoder._sigmoid`, to the bit."""
    if logits.shape != y.shape:
        raise ValueError(f"prediction {logits.shape} vs target {y.shape}")
    z = np.ascontiguousarray(logits)
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    t = np.maximum(z, 0.0)
    a = np.multiply(y, z)
    t -= a
    t += np.log1p(e, out=a)
    loss = float(t.mean())
    # e <= 1, so the maximum is 1 where z >= 0 and e elsewhere: the
    # numerator of the sigmoid, cheaper than a where in C order
    g = np.maximum(e, z >= 0, out=t)
    e += 1.0
    g /= e
    g -= y
    g /= g.size
    return loss, g


def bce_loss(pred: Prediction, target: AffordanceTarget) -> float:
    """The loss of :func:`bce_loss_and_grad` on the prediction's pixel logits."""
    return bce_loss_and_grad(pred.logits, target.M)[0]


def _bce_score_grad(scores: np.ndarray, target: np.ndarray) -> np.ndarray:
    """(s - y) / n in C order from scores = sigmoid(z): the logit gradient of
    :func:`bce_loss_and_grad`, for callers that hold the scores."""
    return np.subtract(scores, target, order="C") / scores.size


def backward(
    mp: ModelParams,
    item: LoadedItem,
    enc: StubTextEncoder,
    table: np.ndarray,
) -> tuple[float, Gradients]:
    """Loss and exact gradients for every trainable tensor.

    The forward builds no scores; :func:`bce_loss_and_grad` gives the loss
    and the logit gradient. The gradients are the model's own
    :class:`Gradients`, overwritten by the next call on the same model; copy
    them to keep them. Each layer writes its gradients into their slots
    (``out``), and every slot is written on every call, so the vector is
    never cleared. A non-finite gradient raises ArithmeticError naming the
    first such parameter; a non-finite loss with finite gradients raises it too.
    """
    pred, cache = forward(mp, enc, table, item.stack, scores=False)
    loss, d_logits = bce_loss_and_grad(pred.logits, item.target.M)

    if mp._grads is None:
        # once per model: a fresh 800 kB vector (README config) on every
        # step made malloc grow and trim its heap in some processes, with a
        # page fault per 4 kB touched
        object.__setattr__(mp, "_grads", Gradients(mp, np.empty(mp.theta.size)))
    grads = mp._grads
    slots = grads.tree
    d_visual, d_text_out = decoder.predict_backward(cache.predict_cache, d_logits)
    _, d_text, d_vis2 = decoder.decode_backward(cache.decode_caches, d_text_out,
                                                out=slots.dp.layers)
    if d_vis2 is not None:  # None with no decoder layers
        d_visual += d_vis2
    *_, d_fused = fusion.embed_backward(cache.embed_cache, d_visual, out=slots.emb)
    fusion.fuse_backward(cache.fuse_cache, d_fused, out=slots.fp)
    prompt.encode_texts_backward(cache.text_cache, d_text, out=slots.ctx)

    if not np.isfinite(grads.flat).all():
        raise ArithmeticError(
            f"non-finite gradient for parameter {_first_nonfinite(grads.layout, grads.flat)}"
        )
    if not math.isfinite(loss):  # finite pixel terms can still sum past float64
        raise ArithmeticError(f"non-finite loss {loss} with finite gradients")
    return loss, grads


def sgd_step(mp: ModelParams, grads: Gradients, lr: float) -> ModelParams:
    """Plain descent update in place, ``theta -= lr * g`` on the flat vectors,
    so each array of ``param_items(mp)`` becomes ``arr - lr * g``; the same
    ``mp`` is returned.

    ``grads`` is a :class:`Gradients` laid out like ``mp``: its own from
    :func:`backward`, or one from :func:`zero_gradients`. Anything else raises
    ValueError before any value changes. A non-finite result raises
    ArithmeticError naming the parameter; the model is then unusable.
    """
    if not (isinstance(grads, Gradients) and grads.layout == mp._layout):
        raise ValueError("sgd_step needs a Gradients laid out like the model")
    theta = mp.theta
    with np.errstate(over="ignore", invalid="ignore"):
        theta -= lr * grads.flat
    if not np.isfinite(theta).all():
        raise ArithmeticError(
            f"non-finite value in parameter {_first_nonfinite(mp._layout, theta)} after the step"
        )
    return mp


# ---------------------------------------------------------------------------
# training loop

LossLog = list[tuple[int, float]]


@np.errstate(over="ignore", invalid="ignore")
def train(
    cfg: TrainConfig,
    trainset: list[LoadedItem],
    affordances,
) -> tuple[ModelParams, LossLog]:
    """One-shot training: each step draws one item from a seeded shuffle,
    runs forward/backward, and applies SGD. Bitwise deterministic.

    An item with fewer feature layers than ``cfg.j``, or with another feature
    width than the first item, raises ValueError before the first step, also
    when there are no steps: the model could not run on it. So does a model
    that numpy cannot hold (:func:`init_model`). Overflow is not
    warned about: the finiteness checks of the decoder, :func:`backward` and
    :func:`sgd_step` raise ArithmeticError instead."""
    if not trainset:
        raise ValueError("empty trainset")
    feature_dim = trainset[0].stack.feature_dim
    for item in trainset:
        if len(item.stack.layers) < cfg.j:
            raise ValueError(f"config j {cfg.j} wants {cfg.j} feature layers but item "
                             f"{item.item_id} has {len(item.stack.layers)}")
        if item.stack.feature_dim != feature_dim:
            raise ValueError(f"item {item.item_id} has feature dim {item.stack.feature_dim}, "
                             f"item {trainset[0].item_id} has {feature_dim}")
    params = init_model(cfg, feature_dim)
    table, enc = build_text_pipeline(cfg, affordances)
    order_rng = np.random.default_rng([cfg.seed, 0x5472])

    log: LossLog = []
    order = np.empty(0, dtype=np.intp)
    for i in range(cfg.iterations):
        k = i % len(trainset)
        if k == 0:
            order = order_rng.permutation(len(trainset))
        item = trainset[order[k]]
        loss, grads = backward(params, item, enc, table)
        sgd_step(params, grads, cfg.lr)
        if (i + 1) % cfg.log_every == 0 or i == cfg.iterations - 1:
            log.append((i + 1, loss))
    object.__setattr__(params, "_grads", None)  # the trained model keeps no gradient memory
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
    the vocabulary it was trained with, and the exact config.

    Construction builds what depends on the parameters alone, once: the class
    tokens, the encoded class prompts ``text`` and the folded fusion and
    embedder ``folded`` (:func:`fusion.fold_embedder`). It then makes
    ``params.theta`` and every parameter array read-only, so a write to the
    model (:func:`sgd_step` included) raises ValueError and the built values
    never go stale; train a model before checkpointing it.
    """

    params: ModelParams
    enc: StubTextEncoder
    affordances: tuple[str, ...]
    cfg: TrainConfig
    _table: np.ndarray = field(init=False, compare=False, repr=False)
    text: np.ndarray = field(init=False, compare=False, repr=False)
    folded: fusion.FoldedEmbedder = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        mp = self.params
        table = synth_text_tokens(self.affordances, self.cfg.C_t, self.cfg.seed)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                text, _ = prompt.encode_texts_cached(mp.ctx, table, self.enc)
                folded = fusion.fold_embedder(mp.fp, mp.emb)
            if not all(np.isfinite(a).all() for a in (text, *folded.weights)):
                raise ArithmeticError
        except ArithmeticError:
            raise ValueError(
                "checkpoint parameters overflow to non-finite prompts or fusion") from None
        # shared by every eval call; the parameters they were built from stay as they are
        for arr in (table, text, *folded.weights, mp.theta,
                    *(a for _, a in param_items(mp))):
            arr.flags.writeable = False
        for name, value in (("_table", table), ("text", text), ("folded", folded)):
            object.__setattr__(self, name, value)

    def text_table(self) -> np.ndarray:
        """The frozen N x C_t class tokens the model was trained with, one row
        per affordance in order; built once and read-only."""
        return self._table


CHECKPOINT_VERSION = 2


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Container framing: magic, uint32 manifest length, JSON manifest,
    then all arrays as float64 in manifest order."""
    named = param_items(ckpt.params) + [("text_encoder.proj", ckpt.enc.proj)]
    manifest = {
        "version": CHECKPOINT_VERSION,
        "config": {f.name: getattr(ckpt.cfg, f.name) for f in fields(TrainConfig)},
        "affordances": list(ckpt.affordances),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in named],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = container.MAGIC + container.pack_u32(len(blob))
    with open(path, "wb") as fh:
        fh.write(header + blob)
        for _, arr in named:
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
            config, affordances = manifest["config"], manifest["affordances"]
            entries = [(e["name"], tuple(e["shape"])) for e in manifest["arrays"]]
        except (KeyError, TypeError) as exc:
            raise CorruptionError(f"checkpoint manifest malformed: {exc!r}") from exc
        try:
            cfg = _config_from_dict(config)
            affordances = parse_affordances(affordances, str(path))
        except ValueError as exc:
            raise FormatError(f"checkpoint {exc}") from exc
        for name, shape in entries:
            if not all(type(d) is int and d >= 0 for d in shape):
                raise CorruptionError(f"checkpoint array {name} has bad shape {list(shape)}")
        weight = next((shape for name, shape in entries if name == "embedder.weight"), ())
        if len(weight) != 2:
            raise CorruptionError("checkpoint needs a 2-D array embedder.weight")
        # every stored name and shape must be the model's, in order, before any value is read
        dims = cfg.p, cfg.C_t, cfg.j, weight[0], cfg.C, cfg.t
        expected = itertools.chain(param_shapes(*dims), [("text_encoder.proj", (cfg.C_t, cfg.C))])
        for i, (got, want) in enumerate(itertools.zip_longest(entries, expected)):
            if got != want:
                raise CorruptionError(f"checkpoint array {i} is {got}, the model's is {want}")
        theta = container.read_f64(fh, sum(math.prod(shape) for _, shape in entries[:-1]),
                                   more=cfg.C_t * cfg.C)
        proj = container.read_f64(fh, cfg.C_t * cfg.C).reshape(cfg.C_t, cfg.C)

    params = ModelParams(theta, dims, cfg.gate)
    if not np.isfinite(theta).all():
        raise CorruptionError(f"checkpoint array {_first_nonfinite(params._layout, theta)} "
                              "has a non-finite value")
    if not np.isfinite(proj).all():
        raise CorruptionError("checkpoint array text_encoder.proj has a non-finite value")
    proj.flags.writeable = False
    return Checkpoint(params, StubTextEncoder(proj=proj), affordances, cfg)

"""Spans around the calls into each affseg layer, recorded from benchmark code.

Nothing under ``src/affseg`` is changed. While :func:`instrument` is active,
the layer functions that the program looks up through module attributes are
replaced by wrappers that open a span and call the original, and
``training.forward`` / ``training.backward`` are replaced by a composition of
the public per-layer functions (:func:`forward_composed`,
:func:`backward_composed`) with a span around each call. The composition must
reproduce the program's own results bit for bit; :func:`check_composition`
verifies that against the originals.

A span's self time is its duration minus the time covered by its child spans
on the same thread.
"""

from __future__ import annotations

import functools
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from affseg import data, decoder, features, fusion, metrics, prompt, synth, training


class Tracer:
    """In-memory span recorder, safe to use from the eval pool's threads.

    Each span is stored as (span id, parent id, op id, name, start, end, self
    seconds). ``op`` is the id of the operation being timed, None outside
    the timed window; spans of one operation share it.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self.op: int | None = None
        self.eval_pools: list[tuple[float, float, int]] = []  # (busy s, wall s, threads)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _thread_state(self) -> "_ThreadSpans":
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadSpans(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    def spans(self) -> list[tuple]:
        with self._lock:
            return [s for st in self._threads for s in st.spans]


class _ThreadSpans:
    __slots__ = ("index", "seq", "stack", "spans")

    def __init__(self, index: int):
        self.index = index
        self.seq = 0
        self.stack: list[_Span] = []
        self.spans: list[tuple] = []


class _Span:
    __slots__ = ("tracer", "name", "st", "id", "start", "child")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        st = self.st = self.tracer._thread_state()
        st.seq += 1
        self.id = f"{st.index}.{st.seq}"
        self.child = 0.0
        st.stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        st = self.st
        st.stack.pop()
        dur = end - self.start
        parent = st.stack[-1] if st.stack else None
        if parent is not None:
            parent.child += dur
        st.spans.append(
            (self.id, parent.id if parent else None, self.tracer.op, self.name,
             self.start, end, dur - self.child)
        )
        return False


class NullTracer:
    """Tracer stand-in for untraced runs: spans cost one method call."""

    op = None

    def span(self, name: str):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
NULL = NullTracer()


# ---------------------------------------------------------------------------
# composition of the public layer functions


def forward_composed(tracer, mp, enc, table, stack, ablate=None, text_override=None):
    """``training.forward`` as a sequence of public layer calls, one span each."""
    if ablate is not None or text_override is not None:
        raise NotImplementedError("the traced forward covers the unablated model only")
    with tracer.span("training.forward"):
        with tracer.span("prompt.encode_texts.fwd"):
            text, text_cache = prompt.encode_texts_cached(mp.ctx, table, enc)
        with tracer.span("fusion.fuse.fwd"):
            fused, fuse_cache = fusion.fuse_cached(stack, mp.fp)
        with tracer.span("fusion.embed.fwd"):
            visual, embed_cache = fusion.embed_cached(fused, mp.emb)
        text_out = text
        decode_caches = []
        for k, layer in enumerate(mp.dp.layers):
            with tracer.span(f"decoder.layer{k}.fwd"):
                text_out, cache = decoder.decoder_layer_cached(
                    text_out, visual, stack.cls, layer, True
                )
            decode_caches.append(cache)
        with tracer.span("decoder.predict.fwd"):
            pred, predict_cache = decoder.predict_cached(
                visual, text_out, stack.grid, stack.image_size
            )
        return pred, training.ForwardCache(
            pred, text_cache, fuse_cache, embed_cache, decode_caches, predict_cache, None
        )


def backward_composed(tracer, mp, item, enc, table, ablate=None, text_override=None):
    """``training.backward`` as a sequence of public layer calls, one span each.

    The span ``training.backward`` keeps as self time what lies between the
    layer calls: the gradient dict, the loss-to-score gradient and the
    finiteness checks.
    """
    with tracer.span("training.backward"):
        pred, cache = forward_composed(tracer, mp, enc, table, item.stack, ablate, text_override)
        with tracer.span("training.bce_loss"):
            loss = training.bce_loss(pred, item.target)
        grads = training.zero_gradients(mp)
        d_scores = training._bce_score_grad(pred.upsampled, item.target.M)
        with tracer.span("decoder.predict.bwd"):
            d_visual, d_text = decoder.predict_backward(cache.predict_cache, d_scores)
        d_vis_layers = None
        for k in reversed(range(len(cache.decode_caches))):
            with tracer.span(f"decoder.layer{k}.bwd"):
                layer_grads, d_text, d_vis = decoder.decoder_layer_backward(
                    cache.decode_caches[k], d_text
                )
            d_vis_layers = d_vis if d_vis_layers is None else d_vis_layers + d_vis
            for name, val in layer_grads.items():
                grads[f"decoder.{k}.{name}"] = val
        if d_vis_layers is not None:
            d_visual = d_visual + d_vis_layers
        with tracer.span("fusion.embed.bwd"):
            d_w, d_b, d_fused = fusion.embed_backward(cache.embed_cache, d_visual)
        grads["embedder.weight"] = d_w
        grads["embedder.bias"] = d_b
        with tracer.span("fusion.fuse.bwd"):
            d_proj, d_logits = fusion.fuse_backward(cache.fuse_cache, d_fused)
        for i, g in enumerate(d_proj):
            grads[f"fusion.proj.{i}"] = g
        grads["fusion.alpha_logits"] = d_logits
        with tracer.span("prompt.encode_texts.bwd"):
            grads["ctx.vectors"] = prompt.encode_texts_backward(cache.text_cache, d_text)
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise ArithmeticError(f"non-finite gradient for parameter {name}")
        return loss, grads


def check_composition(mp, enc, table, items) -> list[str]:
    """Compare the composition with ``training.forward`` / ``training.backward``
    on *items*; returns one line per mismatch (empty when bitwise equal).
    Must run with the originals in place, i.e. outside :func:`instrument`."""
    problems = []
    for item in items:
        pred, _ = training.forward(mp, enc, table, item.stack)
        pred_c, _ = forward_composed(NULL, mp, enc, table, item.stack)
        for field in ("logits", "upsampled"):
            if not _same(getattr(pred, field), getattr(pred_c, field)):
                problems.append(f"{item.item_id}: forward {field} differs")
        loss, grads = training.backward(mp, item, enc, table)
        loss_c, grads_c = backward_composed(NULL, mp, item, enc, table)
        if loss != loss_c:
            problems.append(f"{item.item_id}: loss {loss!r} != {loss_c!r}")
        if grads.keys() != grads_c.keys():
            problems.append(f"{item.item_id}: gradient names differ")
        for name in grads.keys() & grads_c.keys():
            if not _same(grads[name], grads_c[name]):
                problems.append(f"{item.item_id}: gradient {name} differs")
    return problems


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# instrumentation


def _timed(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _timed_evaluate(tracer, evaluate):
    """Wrap ``metrics.evaluate`` to measure the eval pool: per-item busy time,
    wall time and the number of threads that ran items."""

    @functools.wraps(evaluate)
    def wrapper(run_item, eval_set, *args, **kwargs):
        busy = []
        threads = set()

        def timed_item(item):
            t0 = perf_counter()
            try:
                with tracer.span("metrics.run_item"):
                    return run_item(item)
            finally:
                busy.append(perf_counter() - t0)
                threads.add(threading.get_ident())

        t0 = perf_counter()
        with tracer.span("metrics.evaluate"):
            report = evaluate(timed_item, eval_set, *args, **kwargs)
        wall = perf_counter() - t0
        if threads:
            tracer.eval_pools.append((sum(busy), wall, len(threads)))
        return report

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Route the program's layer calls through spans of *tracer*."""

    def composed_backward(mp, item, enc, table, ablate=None, text_override=None):
        return backward_composed(tracer, mp, item, enc, table, ablate, text_override)

    def composed_forward(mp, enc, table, stack, ablate=None, text_override=None):
        return forward_composed(tracer, mp, enc, table, stack, ablate, text_override)

    patches = [
        (training, "backward", composed_backward),
        (training, "forward", composed_forward),
        (training, "sgd_step", _timed(tracer, "training.sgd_step", training.sgd_step)),
        (training, "train", _timed(tracer, "training.train", training.train)),
        (training, "save_checkpoint",
         _timed(tracer, "training.save_checkpoint", training.save_checkpoint)),
        (training, "load_checkpoint",
         _timed(tracer, "training.load_checkpoint", training.load_checkpoint)),
        # the prediction head looks these up in its own module namespace
        (decoder, "upsample_bilinear",
         _timed(tracer, "resample.upsample.fwd", decoder.upsample_bilinear)),
        (decoder, "upsample_bilinear_adjoint",
         _timed(tracer, "resample.upsample.bwd", decoder.upsample_bilinear_adjoint)),
        (synth, "make_world", _timed(tracer, "synth.make_world", synth.make_world)),
        (synth, "synth_vision_encode",
         _timed(tracer, "synth.vision_encode", synth.synth_vision_encode)),
        (features, "save_features",
         _timed(tracer, "features.save_features", features.save_features)),
        (data, "load_manifest", _timed(tracer, "data.load_manifest", data.load_manifest)),
        (data, "load_item", _timed(tracer, "data.load_item", data.load_item)),
        # load_item looks these up in the data module namespace
        (data, "load_features", _timed(tracer, "features.load_features", data.load_features)),
        (data, "load_target", _timed(tracer, "data.load_target", data.load_target)),
        (data, "densify", _timed(tracer, "data.densify", data.densify)),
        (metrics, "evaluate_checkpoint",
         _timed(tracer, "metrics.evaluate_checkpoint", metrics.evaluate_checkpoint)),
        (metrics, "evaluate", _timed_evaluate(tracer, metrics.evaluate)),
        (metrics, "keypoint_fixations",
         _timed(tracer, "metrics.keypoint_fixations", metrics.keypoint_fixations)),
        (metrics, "heatmap_record",
         _timed(tracer, "metrics.heatmap_record", metrics.heatmap_record)),
        (metrics, "iou_counts", _timed(tracer, "metrics.iou_counts", metrics.iou_counts)),
    ]
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


def layer_summary(tracer: Tracer, timed_ops: int) -> dict:
    """Per span name: median self time in microseconds over every call in the
    traced run, call count, and calls per operation inside the timed window."""
    self_us: dict[str, list[float]] = {}
    timed_calls: dict[str, int] = {}
    for _id, _parent, op, name, _start, _end, self_s in tracer.spans():
        self_us.setdefault(name, []).append(self_s * 1e6)
        if op is not None:
            timed_calls[name] = timed_calls.get(name, 0) + 1
    return {
        name: {
            "self_us_p50": statistics.median(vals),
            "calls": len(vals),
            "calls_per_op": timed_calls.get(name, 0) / timed_ops if timed_ops else 0.0,
        }
        for name, vals in sorted(self_us.items())
    }


def pool_efficiency(tracer: Tracer) -> float | None:
    """Summed per-item busy time over (wall time x threads), all eval calls."""
    busy = sum(b for b, _, _ in tracer.eval_pools)
    capacity = sum(w * n for _, w, n in tracer.eval_pools)
    return busy / capacity if capacity > 0 else None

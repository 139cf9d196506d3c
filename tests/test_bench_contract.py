"""The layer contract the benchmark's tracer relies on.

``bench/tracing.py`` rebuilds ``training.forward`` / ``training.backward`` from
the public ``*_cached`` / ``*_backward`` layer calls and wraps other layer
functions through their module attributes. These tests load it unchanged, so
a refactor that breaks the tracer fails here in about a second.
Traced training must equal untraced training bitwise.
Eval goes through ``fusion.embed_folded`` and the decoder layers, once per
chunk of items, which the tracer leaves in place; the item loads and the
upsampling of each item are still wrapped, and traced reports must equal
untraced ones.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from affseg import data, gradcheck, metrics, training
from tests.test_data import AFFS, record_runs, write_world

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

LAYER_SPANS = {
    f"{layer}.{direction}"
    for layer in ("prompt.encode_texts", "fusion.fuse", "fusion.embed", "decoder.layer0",
                  "decoder.layer1", "decoder.predict", "resample.upsample")
    for direction in ("fwd", "bwd")
}


def test_composition_matches_forward_and_backward_bitwise():
    params, enc, table, item = gradcheck.build_problem(seed=0)
    assert tracing.check_composition(params, enc, table, [item]) == []


def test_composition_holds_on_a_loaded_checkpoint(tmp_path):
    # a loaded model is read-only, frozen and gated, and built from the stored values
    params, enc, _, item = gradcheck.build_problem(seed=0)
    cfg = training.TrainConfig(seed=0, p=2, j=2, t=2, C=8, C_t=8, iterations=0)
    path = tmp_path / "m.ooal"
    training.save_checkpoint(training.Checkpoint(params, enc, gradcheck.class_names(), cfg), path)
    loaded = training.load_checkpoint(path)
    assert training.params_checksum(loaded.params) == training.params_checksum(params)
    assert not loaded.params.theta.flags.writeable and loaded.params.dp.gated
    assert tracing.check_composition(loaded.params, loaded.enc, loaded.text_table(), [item]) == []


def test_traced_training_equals_untraced(monkeypatch):
    *_, item = gradcheck.build_problem(seed=0)
    cfg = training.TrainConfig(iterations=4, seed=0, p=2, j=2, t=2, C=8, C_t=8, log_every=1)
    plain, plain_log = training.train(cfg, [item], gradcheck.class_names())
    made, stepped = [], []
    zero_gradients, sgd_step = training.zero_gradients, training.sgd_step

    def spy_zero_gradients(mp):
        made.append(zero_gradients(mp))
        return made[-1]

    def spy_sgd_step(mp, grads, lr):
        stepped.append(grads)
        return sgd_step(mp, grads, lr)

    monkeypatch.setattr(training, "zero_gradients", spy_zero_gradients)
    monkeypatch.setattr(training, "sgd_step", spy_sgd_step)
    with tracing.instrument(tracing.Tracer()):
        traced, traced_log = training.train(cfg, [item], gradcheck.class_names())
    assert training.params_checksum(traced) == training.params_checksum(plain)
    assert traced_log == plain_log
    # the tracer's backward starts from zero_gradients, and its mapping
    # reaches sgd_step as is
    assert len(stepped) == len(made) == cfg.iterations
    assert all(g is m and isinstance(g, training.Gradients) for g, m in zip(stepped, made))


def test_training_emits_every_layer_span():
    *_, item = gradcheck.build_problem(seed=0)
    cfg = training.TrainConfig(iterations=3, seed=0, p=2, j=2, t=2, C=8, C_t=8)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        training.train(cfg, [item], gradcheck.class_names())
    names = {span[3] for span in tracer.spans()}
    assert LAYER_SPANS <= names, sorted(LAYER_SPANS - names)


@pytest.mark.parametrize("mode, keypoints, chunk_items", [
    pytest.param("dense", False, None, id="dense"),
    pytest.param("dense", False, 3, id="dense-chunks"),
    pytest.param("heatmap", False, None, id="heatmap"),
    pytest.param("heatmap", True, None, id="heatmap-keypoints"),
])
def test_traced_eval_reports_equal_untraced(tmp_path, monkeypatch, mode, keypoints, chunk_items):
    manifest = write_world(tmp_path)
    if chunk_items:  # the 10 items take four chunks: a 16 x 16 x 2 target, a 16 x 8 embedding
        monkeypatch.setattr(metrics, "EVAL_CHUNK_BYTES", chunk_items * (16 * 16 * 2 + 16 * 8) * 8)
    cfg = training.TrainConfig(iterations=5, seed=1, p=2, j=2, t=1, C=8, C_t=8)
    trainset = [data.load_item(manifest, it) for it in manifest.items[:2]]
    params, _ = training.train(cfg, trainset, manifest.affordances)
    _, enc = training.build_text_pipeline(cfg, manifest.affordances)
    ckpt = training.Checkpoint(params, enc, manifest.affordances, cfg)
    if keypoints:
        items = tuple(
            dataclasses.replace(it, target={"kind": "keypoints", "sigma": 2.0, "points": {
                AFFS[0]: [[k % 16, 4.5]], AFFS[1]: [[0, 15.75], [k / 2, 3]]}})
            for k, it in enumerate(manifest.items)
        )
        manifest = dataclasses.replace(manifest, items=items)
    plain = metrics.evaluate_checkpoint(ckpt, manifest, manifest.items, mode).to_json()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = metrics.evaluate_checkpoint(ckpt, manifest, manifest.items, mode).to_json()
    assert traced == plain
    names = [span[3] for span in tracer.spans()]
    # the per-layer table of eval-dense reads these spans
    for name in ("data.load_item", "resample.upsample.fwd"):
        assert names.count(name) == len(manifest.items), name
    if mode == "dense":
        # each object's items name its mask file one after another and share one read
        assert names.count("data.load_target") == record_runs(manifest.items) == 5
    if keypoints:
        # the per-layer table of query-heatmap-224 reads these spans
        for name in ("data.densify", "metrics.keypoint_fixations", "metrics.heatmap_record"):
            assert names.count(name) == len(manifest.items), name

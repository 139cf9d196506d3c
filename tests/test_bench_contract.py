"""The layer contract the benchmark's tracer relies on.

``bench/tracing.py`` rebuilds ``training.forward`` / ``training.backward`` from
the public ``*_cached`` / ``*_backward`` layer calls and wraps other layer
functions through their module attributes. These tests load it unchanged, so
a refactor that breaks the tracer fails here in about a second.
"""

import importlib.util
from pathlib import Path

from affseg import gradcheck, training

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


def test_training_emits_every_layer_span():
    _, _, table, item = gradcheck.build_problem(seed=0)
    cfg = training.TrainConfig(iterations=3, seed=0, p=2, j=2, t=2, C=8, C_t=8)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        training.train(cfg, [item], table.names)
    names = {span[3] for span in tracer.spans()}
    assert LAYER_SPANS <= names, sorted(LAYER_SPANS - names)

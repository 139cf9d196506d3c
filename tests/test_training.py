"""Loss, gradients, SGD loop, determinism, and checkpointing."""

import dataclasses
import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affseg import decoder, fusion, gradcheck, synth, training
from affseg.cli import ABLATIONS
from affseg.container import CorruptionError, FormatError
from affseg.data import DENSE_BINARY, DENSIFIED_SPARSE, AffordanceTarget, LoadedItem, densify
from affseg.decoder import Prediction, _sigmoid
from affseg.features import FeatureStack
from affseg.training import (
    Checkpoint,
    ModelParams,
    TrainConfig,
    _bce_score_grad,
    backward,
    bce_loss,
    load_checkpoint,
    param_items,
    params_checksum,
    save_checkpoint,
    sgd_step,
    train,
    zero_gradients,
)
from tests.oracles import bce_loss_reference, max_rel_err, train_reference


def ablated(cfg: TrainConfig, ablate: str | None) -> TrainConfig:
    """*cfg* as ``train --ablate`` rewrites it; None leaves it as it is."""
    return dataclasses.replace(cfg, **ABLATIONS.get(ablate, {}))


def pred_of(logits: np.ndarray) -> Prediction:
    return Prediction(logits=logits, upsampled=_sigmoid(logits))


class TestBceLoss:
    def test_perfect_prediction(self):
        y = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert bce_loss(pred_of(40.0 * (2.0 * y - 1.0)), AffordanceTarget(M=y)) <= 1e-10

    def test_uniform_scores_give_ln2(self):
        y = (np.random.default_rng(0).random((3, 4, 2)) < 0.5).astype(float)
        z = np.zeros((3, 4, 2))  # every score 0.5
        assert abs(bce_loss(pred_of(z), AffordanceTarget(M=y)) - math.log(2)) < 1e-9

    def test_hand_case(self):
        # oracle: mean(-ln .9, -ln .9, -ln .8, -ln .8) = 0.16425
        s = np.array([0.9, 0.1, 0.8, 0.2]).reshape(2, 2, 1)
        y = np.array([1.0, 0.0, 1.0, 0.0]).reshape(2, 2, 1)
        expected = -(math.log(0.9) + math.log(0.9) + math.log(0.8) + math.log(0.8)) / 4
        got = bce_loss(pred_of(np.log(s / (1.0 - s))), AffordanceTarget(M=y))
        assert abs(got - 0.16425) < 1e-4
        assert abs(got - expected) < 1e-9

    def test_shape_mismatch(self):
        z = np.zeros((2, 2, 1))
        y = np.zeros((2, 3, 1))
        with pytest.raises(ValueError):
            bce_loss(pred_of(z), AffordanceTarget(M=y))

    def test_saturated_logits_are_exact(self):
        # oracle: (800 + 800 + 40) / 3, every term exact in float64
        z = np.array([800.0, -800.0, 40.0]).reshape(1, 1, 3)
        y = np.array([0.0, 1.0, 0.0]).reshape(1, 1, 3)
        assert bce_loss(pred_of(z), AffordanceTarget(M=y)) == 1640.0 / 3.0

    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(1, 6)),
           seed=st.integers(0, 2**32 - 1), channels_first=st.booleans(),
           soft=st.booleans(), log_scale=st.floats(0.0, 300.0))
    @example(shape=(64, 64, 4), seed=0, channels_first=True, soft=False, log_scale=0.5)
    @example(shape=(3, 5, 2), seed=1, channels_first=False, soft=True, log_scale=300.0)
    def test_bitwise_equal_to_one_expression(self, shape, seed, channels_first, soft,
                                             log_scale):
        # logits as the head lays them out (channel by channel) or C-ordered,
        # against a C-ordered binary or soft target; |z| reaches 1e300
        rng = np.random.default_rng(seed)
        H, W, N = shape
        z = rng.standard_normal((N, H, W) if channels_first else (H, W, N)) * 10.0**log_scale
        if channels_first:
            z = z.transpose(1, 2, 0)
        y = rng.random((H, W, N))
        if not soft:
            y = (y < 0.5).astype(np.float64)
        kind = DENSIFIED_SPARSE if soft else DENSE_BINARY
        got = bce_loss(pred_of(z), AffordanceTarget(M=y, kind=kind))
        want = bce_loss_reference(z, y)
        assert math.isfinite(got) and got == want

    @pytest.mark.parametrize("H, W", [(5, 7), (64, 64)])
    def test_channel_major_target_gives_same_bits_and_c_ordered_gradient(self, H, W):
        # a densified target is channel-major; a mask target is C-ordered
        y = densify({"a": [(1.0, 2.0)], "c": [(3.5, 0.0)]}, 2.0, H, W, ["a", "b", "c"])
        y_c = AffordanceTarget(M=np.ascontiguousarray(y.M), kind=y.kind)
        z = np.random.default_rng(H).standard_normal((3, H, W)).transpose(1, 2, 0)
        assert bce_loss(pred_of(z), y) == bce_loss(pred_of(z), y_c)
        got, want = _bce_score_grad(_sigmoid(z), y.M), _bce_score_grad(_sigmoid(z), y_c.M)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=hnp.array_shapes(min_dims=3, max_dims=3, max_side=4))
    def test_finite_nonnegative_and_bounded_gradient(self, data, shape):
        z = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
        y = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
        loss = bce_loss(pred_of(z), AffordanceTarget(M=y, kind=DENSIFIED_SPARSE))
        assert math.isfinite(loss) and loss >= 0.0
        grad = _bce_score_grad(_sigmoid(z), y)
        assert (np.abs(grad) <= 1.0 / z.size).all()


class TestSgdStep:
    def test_zero_lr_and_zero_grad(self):
        params, *_ = gradcheck.build_problem(seed=1)
        before = [arr.copy() for _, arr in param_items(params)]
        zeros = zero_gradients(params)
        for lr, grads in ((1e-9, zeros), (0.5, zeros)):
            sgd_step(params, grads, lr)
            for (_, a), b in zip(param_items(params), before):
                np.testing.assert_array_equal(a, b)

    def test_arithmetic(self):
        params, *_ = gradcheck.build_problem(seed=1)
        for _, arr in param_items(params):
            arr[...] = 1.0
        halves = zero_gradients(params)
        halves.flat[:] = 0.5
        sgd_step(params, halves, lr=0.01)
        for _, arr in param_items(params):
            np.testing.assert_allclose(arr, 0.995, atol=1e-15)

    def test_in_place_and_bitwise_equal_to_reference(self):
        params, enc, table, item = gradcheck.build_problem(seed=3)
        _, grads = backward(params, item, enc, table)
        arrays = [arr for _, arr in param_items(params)]
        reference = [arr - 0.3 * grads[name] for name, arr in param_items(params)]
        assert sgd_step(params, grads, 0.3) is params
        for (_, arr), same, ref in zip(param_items(params), arrays, reference):
            assert arr is same
            assert arr.tobytes() == ref.tobytes()

    def test_shape_mismatch(self):
        # a bad gradient anywhere is refused by name before it reaches the step,
        # which then applies exactly the gradients that were accepted
        params, *_ = gradcheck.build_problem(seed=1)
        before = params.theta.copy()
        grads = zero_gradients(params)
        grads.flat[:] = 1.0
        names = [name for name, _ in param_items(params)]
        for name in (names[0], names[7], names[-1]):
            with pytest.raises(ValueError, match=name):
                grads[name] = np.zeros((1, 1))
            np.testing.assert_array_equal(grads.flat, 1.0)
            np.testing.assert_array_equal(params.theta, before)
        sgd_step(params, grads, 0.1)
        np.testing.assert_array_equal(params.theta, before - 0.1)

    def test_overflowing_step_names_parameter(self):
        params, *_ = gradcheck.build_problem(seed=1)
        grads = zero_gradients(params)
        params.emb.bias[0] = 1e308
        grads["embedder.bias"][0] = -1e308
        with pytest.raises(ArithmeticError, match="embedder.bias"):
            sgd_step(params, grads, 1.0)

    def test_refuses_gradients_of_another_layout(self):
        # a complete plain dict, and the Gradients of a model with one decoder layer
        params, *_ = gradcheck.build_problem(seed=1)
        before = params.theta.copy()
        plain = {n: np.ones_like(a) for n, a in param_items(params)}
        shallow = zero_gradients(gradcheck.build_problem(seed=1, t=1)[0])
        for grads in (plain, shallow):
            with pytest.raises(ValueError, match="Gradients laid out like the model"):
                sgd_step(params, grads, 0.1)
            np.testing.assert_array_equal(params.theta, before)


def _built_model(how, tmp_path) -> ModelParams:
    params, enc, _, _ = gradcheck.build_problem(seed=5)
    if how == "build_problem":
        return params
    if how == "init_model":
        return training.init_model(TrainConfig(seed=5, p=2, j=2, t=2, C=8, C_t=8), 12)
    if how == "direct":
        mp = ModelParams(params.theta.copy(), params.dims, params.gated)
        assert params_checksum(mp) == params_checksum(params)
        return mp
    cfg = TrainConfig(seed=5, p=2, j=2, t=2, C=8, C_t=8, iterations=0)
    save_checkpoint(Checkpoint(params, enc, gradcheck.class_names(), cfg), tmp_path / "m.ooal")
    loaded = load_checkpoint(tmp_path / "m.ooal").params
    assert params_checksum(loaded) == params_checksum(params)
    return loaded


class TestParameterLayout:
    @pytest.mark.parametrize("how", ["init_model", "load_checkpoint", "build_problem", "direct"])
    def test_every_array_is_a_view_of_theta_at_its_offset(self, tmp_path, how):
        mp = _built_model(how, tmp_path)
        theta = mp.theta
        assert theta.dtype == np.float64 and theta.ndim == 1 and theta.flags.c_contiguous
        start = theta.__array_interface__["data"][0]
        offset = 0
        for name, arr in param_items(mp):
            assert arr.base is theta and arr.flags.c_contiguous, name
            assert arr.__array_interface__["data"][0] == start + 8 * offset, name
            offset += arr.size
        assert offset == theta.size
        np.testing.assert_array_equal(
            theta, np.concatenate([arr.ravel() for _, arr in param_items(mp)])
        )
        arrays = [mp.ctx, *mp.fp.proj, mp.fp.alpha_logits, mp.emb.weight, mp.emb.bias,
                  *(getattr(layer, f.name) for layer in mp.dp.layers
                    for f in dataclasses.fields(layer))]
        assert [id(a) for a in arrays] == [id(a) for _, a in param_items(mp)]

    @pytest.mark.parametrize("cfg, C_v", [
        (TrainConfig(p=2, j=2, t=1, C=16, C_t=16), 16),
        (TrainConfig(p=1, j=1, t=0, C=4, C_t=3), 5),
        (TrainConfig(p=3, j=4, t=3, C=6, C_t=2), 2),
        (TrainConfig(), 32),
    ])
    def test_param_shapes_match_the_built_model(self, cfg, C_v):
        built = [(name, arr.shape) for name, arr in param_items(training.init_model(cfg, C_v))]
        dims = cfg.p, cfg.C_t, cfg.j, C_v, cfg.C, cfg.t
        assert list(training.param_shapes(*dims)) == built

    # sha256 of the initial theta as recorded when each parameter group had its
    # own init function: drawing straight into theta by the table gives the same bytes
    @pytest.mark.parametrize("cfg, C_v, digest", [
        pytest.param(TrainConfig(seed=7), 32,
                     "88657ed47dd994f9ea901732a328a382bb0fb0c7706433a61063c9c73f40b83b",
                     id="readme"),
        pytest.param(TrainConfig(seed=7), 384,
                     "7c8d7ce6af362092bcdff432b93714dc203c255f676952b7853fefbdc9547acf",
                     id="readme-C_v-384"),
        pytest.param(TrainConfig(seed=0, p=2, j=2, t=2, C=8, C_t=8), 12,
                     "63c17b6a73078a15edc33ef977eb4c7c56f8958da67b5130ff88c044f0c1ba5c",
                     id="gradcheck"),
        pytest.param(TrainConfig(seed=3, p=2, j=2, t=2, C=16, C_t=8), 6,
                     "2a5d503aef5b2022ccfcc8b3f6702fccb19d38b635f2a9247a35a3814c91a7c9",
                     id="C_v-below-C"),
        pytest.param(TrainConfig(seed=7, p=0), 32,
                     "ca225d594bd89612755d34586510981b6a119ce202441857f7a2d4b74965da74",
                     id="p-0"),
        pytest.param(TrainConfig(seed=7, j=0), 32,
                     "a25d245454c0c861e77c3096d6c8080b55ad6c78b2ffadd4a63fc432f4a04595",
                     id="j-0"),
        pytest.param(TrainConfig(seed=7, t=0), 32,
                     "a439e52731d662542390eec31a03c9813522a47c088c2b366c2573b432735477",
                     id="t-0"),
        pytest.param(TrainConfig(seed=7, C_t=1), 32,
                     "daa5e4ad29f7eae37bc997fbc4f5eeac52c8b6c72cb0e26ed6d18ee984af9c81",
                     id="C_t-1"),
    ])
    def test_initial_theta_is_pinned(self, cfg, C_v, digest):
        theta = training.init_model(cfg, C_v).theta
        assert hashlib.sha256(theta.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("shape", [(0,), (1,), (2089,), (2091,), (4180,), (1, 2090)])
    def test_theta_of_another_size_is_refused(self, shape):
        # the gradcheck model (p 2, C_t 8, j 2, C_v 12, C 8, t 2) has 2090 values
        with pytest.raises(ValueError, match=re.escape(
                f"theta has shape {shape}, the model's is (2090,)")):
            ModelParams(np.zeros(shape), (2, 8, 2, 12, 8, 2))

    # a checkpoint's names and shapes are checked against the table before its
    # values are read: the gradcheck model's arrays, each group's with another shape
    @pytest.mark.parametrize("name, shape, message", [
        pytest.param("ctx.vectors", [8], "checkpoint array 0 is ('ctx.vectors', (8,)), "
                     "the model's is ('ctx.vectors', (2, 8))", id="ctx"),
        pytest.param("fusion.proj.1", [13, 8], "checkpoint array 2 is ('fusion.proj.1', "
                     "(13, 8)), the model's is ('fusion.proj.1', (12, 12))", id="proj"),
        pytest.param("fusion.alpha_logits", [8], "checkpoint array 3 is "
                     "('fusion.alpha_logits', (8,)), the model's is ('fusion.alpha_logits', "
                     "(2,))", id="alpha"),
        pytest.param("embedder.weight", [13], "checkpoint needs a 2-D array embedder.weight",
                     id="weight"),
        pytest.param("embedder.bias", [13], "checkpoint array 5 is ('embedder.bias', (13,)), "
                     "the model's is ('embedder.bias', (8,))", id="bias"),
        pytest.param("decoder.1.wc", [13, 8], "checkpoint array 17 is ('decoder.1.wc', "
                     "(13, 8)), the model's is ('decoder.1.wc', (12, 8))", id="wc"),
    ])
    def test_construction_refuses_an_array_of_another_shape(self, tmp_path, name, shape,
                                                            message):
        params, enc, _, _ = gradcheck.build_problem(seed=3)
        cfg = TrainConfig(seed=3, p=2, j=2, t=2, C=8, C_t=8, iterations=0)
        path = tmp_path / "m.ooal"
        save_checkpoint(Checkpoint(params, enc, gradcheck.class_names(), cfg), path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[8:12])
        doc = _shape_of(name, shape)(json.loads(raw[12:12 + n]))
        blob = json.dumps(doc).encode()
        values = sum(math.prod(e["shape"]) for e in doc["arrays"])
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + bytes(8 * values))
        with pytest.raises(CorruptionError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    def test_models_compare_by_identity(self):
        a, *_ = gradcheck.build_problem(seed=0)
        b, *_ = gradcheck.build_problem(seed=0)
        assert params_checksum(a) == params_checksum(b)
        assert a != b and not a == b
        assert a == a

    def test_gradients_share_the_layout(self):
        params, *_ = gradcheck.build_problem(seed=1)
        grads = zero_gradients(params)
        assert list(grads) == [name for name, _ in param_items(params)]
        assert grads.flat.shape == params.theta.shape and not grads.flat.any()
        start = grads.flat.__array_interface__["data"][0]
        offset = 0
        for name, arr in param_items(params):
            assert grads[name].base is grads.flat and grads[name].shape == arr.shape, name
            assert grads[name].__array_interface__["data"][0] == start + 8 * offset, name
            offset += arr.size

    def test_gradient_assignment_copies_and_never_broadcasts(self):
        params, *_ = gradcheck.build_problem(seed=1)
        grads = zero_gradients(params)
        bias = params.emb.bias
        value = np.arange(bias.size, dtype=np.float64)
        grads["embedder.bias"] = value
        assert grads["embedder.bias"] is not value
        np.testing.assert_array_equal(grads["embedder.bias"], value)
        after_good = grads.flat.copy()
        for bad in (2.0, np.ones(1), np.ones((1, bias.size)), np.ones(bias.size + 1)):
            with pytest.raises(ValueError, match="embedder.bias"):
                grads["embedder.bias"] = bad
        np.testing.assert_array_equal(grads.flat, after_good)

    @pytest.mark.parametrize("rebind", [
        pytest.param(lambda mp: setattr(mp, "ctx", mp.ctx.copy()), id="ctx"),
        pytest.param(lambda mp: setattr(mp.emb, "bias", mp.emb.bias.copy()), id="bias"),
        pytest.param(lambda mp: mp.fp.proj.__setitem__(1, mp.fp.proj[1].copy()), id="proj"),
        pytest.param(lambda mp: setattr(mp.dp.layers[0], "wq", mp.dp.layers[0].wq.copy()),
                     id="wq"),
        pytest.param(lambda mp: mp.dp.layers.append(mp.dp.layers[0]), id="added-layer"),
        pytest.param(lambda mp: mp.dp.layers.pop(), id="removed-layer"),
    ])
    def test_rebinding_raises_at_the_assignment(self, rebind):
        # the parameter objects are frozen and hold tuples: a parameter changes
        # only in place, so every array stays a view of theta
        params, *_ = gradcheck.build_problem(seed=1)
        arrays = [arr for _, arr in param_items(params)]
        before = params.theta.copy()
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError, AttributeError)):
            rebind(params)
        np.testing.assert_array_equal(params.theta, before)
        assert all(a is b for (_, a), b in zip(param_items(params), arrays, strict=True))


class TestBackward:
    def test_duplicate_class_paths_get_identical_gradients(self):
        # with an all-zero shared context and duplicated class tokens (and
        # targets), the two class paths are indistinguishable: the gradient
        # rows reaching the text embeddings must be identical
        from affseg.decoder import decode_backward, predict_backward
        from affseg.training import _bce_score_grad, forward

        params, enc, table, item = gradcheck.build_problem(seed=2, num_classes=2)
        params.ctx[:] = 0.0
        table = table[[0, 0]]
        M = item.target.M.copy()
        M[:, :, 1] = M[:, :, 0]
        item = LoadedItem(item.item_id, item.object_id, item.stack, AffordanceTarget(M=M))

        pred, cache = forward(params, enc, table, item.stack)
        d_scores = _bce_score_grad(pred.upsampled, item.target.M)
        _, d_text_out = predict_backward(cache.predict_cache, d_scores)
        np.testing.assert_allclose(d_text_out[0], d_text_out[1], atol=1e-12)
        _, d_text, _ = decode_backward(cache.decode_caches, d_text_out)
        np.testing.assert_allclose(d_text[0], d_text[1], atol=1e-12)

        # and stepping keeps the duplicated classes in lockstep
        _, grads = backward(params, item, enc, table)
        stepped = sgd_step(params, grads, 0.1)
        pred2, _ = forward(stepped, enc, table, item.stack)
        np.testing.assert_allclose(
            pred2.upsampled[:, :, 0], pred2.upsampled[:, :, 1], atol=1e-12
        )

    def test_stationary_at_perfect_binary_fit(self):
        # if the scores saturate to the binary target exactly, every
        # parameter gradient vanishes (sigmoid(z) - y is exactly zero)
        from affseg.decoder import predict_cached, predict_backward
        from affseg.training import _bce_score_grad

        visual = np.eye(4)
        text_out = np.full((1, 4), 50.0)  # all logits 50 -> scores exactly 1.0
        pred, cache = predict_cached(visual, text_out, (2, 2), (6, 6))
        y = np.ones((6, 6, 1))
        np.testing.assert_array_equal(pred.upsampled, y)
        d_scores = _bce_score_grad(pred.upsampled, y)
        d_vis, d_txt = predict_backward(cache, d_scores)
        assert np.linalg.norm(d_vis) <= 1e-8
        assert np.linalg.norm(d_txt) <= 1e-8

    def test_full_suite_matches_finite_differences(self):
        # oracle: the acceptance-grade check: every parameter group at
        # N=3, L=4, C=8, C_v=12, p=2, j=2, t=2
        max_err, per_param = gradcheck.run_check(seed=0)
        assert max_err < 1e-4, per_param

    @pytest.mark.parametrize("ablate", ABLATIONS)
    def test_ablated_model_matches_finite_differences(self, ablate):
        # the unablated model is checked above, at the same step and tolerance
        max_err, per_param = gradcheck.run_check(seed=0, **ABLATIONS[ablate])
        assert max_err < gradcheck.REL_TOL, per_param

    @pytest.mark.parametrize("ablate", (None, *ABLATIONS))
    def test_every_gradient_slot_written(self, ablate):
        # backward never clears the model's gradient vector, so it must write
        # every slot: NaN left in one raises, naming the parameter
        params, enc, table, item = gradcheck.build_problem(seed=0, **ABLATIONS.get(ablate, {}))
        object.__setattr__(params, "_grads",
                           training.Gradients(params, np.full(params.theta.size, np.nan)))
        _, grads = backward(params, item, enc, table)
        assert grads is params._grads and np.isfinite(grads.flat).all()
        gated = ablate != "ctm"
        assert params.dp.gated == gated and len(params.dp.layers) == (0 if ablate == "td" else 2)
        for k in range(len(params.dp.layers)):
            wc = grads[f"decoder.{k}.wc"]
            assert wc.any() if gated else not wc.any()

    @pytest.mark.parametrize("poison,expected", [
        (("embedder.bias",), "embedder.bias"),
        (("decoder.1.w2",), "decoder.1.w2"),
        # named in param_items order: the embedder comes before the decoder
        (("decoder.0.b1", "embedder.weight"), "embedder.weight"),
    ])
    def test_nonfinite_gradient_names_first_parameter(self, monkeypatch, poison, expected):
        params, enc, table, item = gradcheck.build_problem(seed=4)
        embed_backward, decode_backward = fusion.embed_backward, decoder.decode_backward

        def poisoned_embed(cache, d_out):
            d_w, d_b, d_fused = embed_backward(cache, d_out)
            if "embedder.weight" in poison:
                d_w = d_w.copy()
                d_w[1, 2] = np.inf
            if "embedder.bias" in poison:
                d_b = d_b.copy()
                d_b[-1] = np.nan
            return d_w, d_b, d_fused

        def poisoned_decode(caches, d_out):
            layer_grads, d_text, d_visual = decode_backward(caches, d_out)
            for k, layer in enumerate(layer_grads):
                for name in layer:
                    if f"decoder.{k}.{name}" in poison:
                        layer[name] = np.full_like(layer[name], -np.inf)
            return layer_grads, d_text, d_visual

        monkeypatch.setattr(fusion, "embed_backward", poisoned_embed)
        monkeypatch.setattr(decoder, "decode_backward", poisoned_decode)
        with pytest.raises(ArithmeticError,
                           match=rf"non-finite gradient for parameter {expected}$"):
            backward(params, item, enc, table)

    def test_nonfinite_gradient_reports_parameter(self):
        params, enc, table, item = gradcheck.build_problem(seed=4)
        params.emb.weight[0, 0] = 1e308  # overflow downstream
        with np.errstate(all="ignore"), pytest.raises((ArithmeticError, ValueError)):
            backward(params, item, enc, table)


def make_items(world, noise=0.05, variant=0):
    items = []
    for obj in world.objects:
        if obj.novel:
            continue
        stack = synth.synth_vision_encode(world, obj.object_id, noise, variant=variant)
        target = AffordanceTarget(M=synth.synth_target(world, obj.object_id))
        items.append(LoadedItem(f"{obj.object_id}-{variant:02d}", obj.object_id, stack, target))
    return items


@pytest.fixture(scope="module")
def tiny_world():
    return synth.make_world(seed=5, num_base=3, num_novel=1, num_parts=3, grid=(4, 4),
                            image_size=(16, 16), feature_dim=16)


class TestTrainLoop:
    def test_zero_iterations_returns_init(self, tiny_world):
        items = make_items(tiny_world)
        cfg = TrainConfig(iterations=0, seed=8, p=2, j=2, t=1, C=16, C_t=16)
        params, log = train(cfg, items, tiny_world.affordances)
        init = training.init_model(cfg, tiny_world.feature_dim)
        assert params_checksum(params) == params_checksum(init)
        assert log == []

    def test_bitwise_determinism(self, tiny_world):
        items = make_items(tiny_world)
        cfg = TrainConfig(iterations=12, seed=8, p=2, j=2, t=1, C=16, C_t=16, log_every=5)
        a, log_a = train(cfg, items, tiny_world.affordances)
        b, log_b = train(cfg, items, tiny_world.affordances)
        assert params_checksum(a) == params_checksum(b)
        assert log_a == log_b

    def test_loss_log_length(self, tiny_world):
        items = make_items(tiny_world)
        for iters, every in ((10, 4), (8, 4), (1, 5), (7, 7), (0, 3)):
            cfg = TrainConfig(iterations=iters, seed=8, p=2, j=2, t=1, C=16, C_t=16,
                              log_every=every)
            _, log = train(cfg, items, tiny_world.affordances)
            assert len(log) == math.ceil(iters / every)

    def test_empty_trainset(self):
        cfg = TrainConfig(iterations=1)
        with pytest.raises(ValueError):
            train(cfg, [], ["grasp"])

    @pytest.mark.parametrize("names", [["cut", "grasp", "cut"], []])
    def test_bad_affordance_names_fail_before_the_first_step(self, tiny_world, monkeypatch, names):
        steps = []
        monkeypatch.setattr(training, "backward", lambda *a: steps.append(a))
        cfg = TrainConfig(iterations=3, seed=1, p=2, j=2, t=1, C=16, C_t=16)
        with pytest.raises(ValueError, match="affordance name"):
            train(cfg, make_items(tiny_world), names)
        assert steps == []

    @pytest.mark.parametrize("sizes", [{"p": 10**20}, {"C_t": 10**20}, {"C": 10**20},
                                       {"t": 10**20}, {"p": 0, "C_t": 10**20}])
    def test_model_numpy_cannot_hold_fails_before_any_array(self, tiny_world, monkeypatch,
                                                            sizes):
        # sizes past what numpy can index fail without allocating; t is never walked
        items = make_items(tiny_world)
        built = []
        for mod, name in ((training, "build_text_pipeline"), (training, "ModelParams"),
                          (np.random, "default_rng")):
            monkeypatch.setattr(mod, name, lambda *a, name=name, **k: built.append(name))
        cfg = TrainConfig(**{"iterations": 3, "seed": 1, "p": 2, "j": 2, "t": 1, "C": 16,
                             "C_t": 16, **sizes})
        with pytest.raises(ValueError, match=r"^config p \d+, C_t \d+, j 2, C \d+ and t \d+ at "
                           r"feature dim 16: \d+ values are more than one numpy array can hold$"):
            train(cfg, items, tiny_world.affordances)
        assert built == []

    def test_descent_property(self, tiny_world):
        # single small-lr step on a fixed batch should not increase loss in
        # at least 99 of 100 seeded trials
        items = make_items(tiny_world)
        item = items[0]
        descents = 0
        for seed in range(100):
            cfg = TrainConfig(iterations=0, seed=seed, p=2, j=2, t=1, C=16, C_t=16)
            table, enc = training.build_text_pipeline(cfg, tiny_world.affordances)
            params = training.init_model(cfg, tiny_world.feature_dim)
            loss0, grads = backward(params, item, enc, table)
            stepped = sgd_step(params, grads, 1e-4)
            pred, _ = training.forward(stepped, enc, table, item.stack)
            loss1 = bce_loss(pred, item.target)
            descents += loss1 <= loss0
        assert descents >= 99

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 300), t=st.integers(0, 1),
           ablate=st.sampled_from((None, *ABLATIONS)))
    @example(k=104, t=0, ablate=None)  # finite pixel terms whose mean overflows
    @example(k=150, t=1, ablate=None)
    def test_extreme_finite_features_train_or_fail_by_name(self, tiny_world, k, t, ablate):
        # runs under the suite's error::RuntimeWarning filter: an overflow on
        # the way is no warning, only the finiteness checks may report it
        item = make_items(tiny_world)[0]
        s = 10.0**k
        stack = FeatureStack(layers=tuple(s * x for x in item.stack.layers), cls=s * item.stack.cls,
                             grid=item.stack.grid, image_size=item.stack.image_size)
        scaled = LoadedItem(item.item_id, item.object_id, stack, item.target)
        cfg = ablated(TrainConfig(iterations=2, seed=8, p=2, j=2, t=t, C=16, C_t=16,
                                  log_every=1), ablate)
        try:
            params, log = train(cfg, [scaled], tiny_world.affordances)
        except ArithmeticError as exc:
            assert re.fullmatch(r"non-finite (gradient for parameter \S+|value in decoder layer "
                                r"output|loss \S+ with finite gradients|layer-norm variance "
                                r"in text encoding)", str(exc)), str(exc)
        else:
            assert all(math.isfinite(loss) for _, loss in log)
            assert np.isfinite(params.theta).all()

    @pytest.mark.parametrize("ablate", (None, *ABLATIONS))
    def test_equals_per_array_reference_bitwise(self, tiny_world, ablate):
        items = make_items(tiny_world)
        cfg = ablated(TrainConfig(lr=0.05, iterations=9, seed=8, p=2, j=2, t=2, C=16, C_t=16,
                                  log_every=2), ablate)
        params, log = train(cfg, items, tiny_world.affordances)
        ref, ref_log = train_reference(cfg, items, tiny_world.affordances)
        assert params_checksum(params) == params_checksum(ref)
        assert log == ref_log

    def test_frozen_components_unchanged(self, tiny_world):
        items = make_items(tiny_world)
        cfg = TrainConfig(iterations=6, seed=9, p=2, j=2, t=1, C=16, C_t=16)
        table, enc = training.build_text_pipeline(cfg, tiny_world.affordances)
        enc_digest = hashlib.sha256(enc.proj.tobytes()).hexdigest()
        stack_digest = hashlib.sha256(items[0].stack.last.tobytes()).hexdigest()
        train(cfg, items, tiny_world.affordances)
        table2, enc2 = training.build_text_pipeline(cfg, tiny_world.affordances)
        assert hashlib.sha256(enc2.proj.tobytes()).hexdigest() == enc_digest
        np.testing.assert_array_equal(table, table2)
        regenerated = synth.synth_vision_encode(tiny_world, items[0].object_id, 0.05, variant=0)
        assert hashlib.sha256(regenerated.last.tobytes()).hexdigest() == stack_digest


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _first_array(entry):
    return lambda doc: {**doc, "arrays": [entry] + doc["arrays"][1:]}


def _config(**values):
    return lambda doc: {**doc, "config": {**doc["config"], **values}}


def _shape_of(name, shape):
    return lambda doc: {**doc, "arrays": [{**e, "shape": shape} if e["name"] == name else e
                                          for e in doc["arrays"]]}


def _name_of(i, name):
    return lambda doc: {**doc, "arrays": [{**e, "name": name} if k == i else e
                                          for k, e in enumerate(doc["arrays"])]}


class TestCheckpoint:
    def bundle(self, tiny_world, iterations=4):
        items = make_items(tiny_world)
        cfg = TrainConfig(iterations=iterations, seed=10, p=2, j=2, t=1, C=16, C_t=16)
        params, _ = train(cfg, items, tiny_world.affordances)
        table, enc = training.build_text_pipeline(cfg, tiny_world.affordances)
        return Checkpoint(params=params, enc=enc, affordances=tiny_world.affordances,
                          cfg=cfg), items, table, enc

    def test_roundtrip_identical_forward(self, tiny_world, tmp_path):
        ckpt, items, table, enc = self.bundle(tiny_world)
        path = tmp_path / "model.ooal"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        pred_a, _ = training.forward(ckpt.params, enc, table, items[0].stack)
        pred_b, _ = training.forward(loaded.params, loaded.enc, loaded.text_table(), items[0].stack)
        np.testing.assert_array_equal(pred_a.upsampled, pred_b.upsampled)
        # and the shuffled bytes round-trip bit-exactly
        second = tmp_path / "again.ooal"
        save_checkpoint(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_load_builds_from_the_stored_values_alone(self, tiny_world, tmp_path,
                                                       monkeypatch):
        ckpt, *_ = self.bundle(tiny_world)
        path = tmp_path / "model.ooal"
        save_checkpoint(ckpt, path)
        called, seeds = [], []
        monkeypatch.setattr(training, "init_model", lambda *a, **k: called.append(a))
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: seeds.append(seed) or default_rng(seed))
        assert params_checksum(load_checkpoint(path).params) == params_checksum(ckpt.params)
        assert called == []
        # the class tokens are drawn again; no generator of init_model's parameter groups is
        assert seeds and not [s for s in seeds if s[1] in (0xC0DE, 0xF05E, 0xE89D, 0xDEC0)]

    def test_text_table_is_built_once(self, tiny_world):
        ckpt, _, table, _ = self.bundle(tiny_world, iterations=0)
        first, second = ckpt.text_table(), ckpt.text_table()
        assert first is second and first.shape == (len(ckpt.affordances), ckpt.cfg.C_t)
        assert first.tobytes() == table.tobytes()
        assert not first.flags.writeable

    def test_duplicate_affordances_are_refused(self, tiny_world):
        ckpt, *_ = self.bundle(tiny_world, iterations=0)
        with pytest.raises(ValueError, match="affordance names must be unique"):
            Checkpoint(params=ckpt.params, enc=ckpt.enc, cfg=ckpt.cfg,
                       affordances=(*ckpt.affordances, ckpt.affordances[0]))

    def test_overflowing_prompts_are_refused(self, tiny_world):
        # finite parameters whose encoded prompts overflow to NaN, as a
        # flipped exponent bit in a checkpoint file can give
        items = make_items(tiny_world)
        cfg = TrainConfig(iterations=0, seed=10, p=2, j=2, t=1, C=16, C_t=16)
        params, _ = train(cfg, items, tiny_world.affordances)
        params.ctx[:, 0] = 1e308
        _, enc = training.build_text_pipeline(cfg, tiny_world.affordances)
        with pytest.raises(ValueError, match="overflow"):
            Checkpoint(params=params, enc=enc, affordances=tiny_world.affordances, cfg=cfg)

    def test_prompts_erased_by_variance_overflow_are_refused(self, tiny_world):
        # a finite context value whose layer-norm variance overflows
        items = make_items(tiny_world)
        cfg = TrainConfig(iterations=0, seed=10, p=2, j=2, t=1, C=16, C_t=16)
        params, _ = train(cfg, items, tiny_world.affordances)
        params.ctx[0, 0] = -3e306
        _, enc = training.build_text_pipeline(cfg, tiny_world.affordances)
        with pytest.raises(ValueError, match="^checkpoint parameters overflow to non-finite "
                                             "prompts or fusion$"):
            Checkpoint(params=params, enc=enc, affordances=tiny_world.affordances, cfg=cfg)

    def test_parameters_are_read_only(self, tiny_world):
        ckpt, items, table, enc = self.bundle(tiny_world)
        mp = ckpt.params
        before = mp.theta.copy()
        assert not mp.theta.flags.writeable
        assert not [name for name, arr in param_items(mp) if arr.flags.writeable]
        _, grads = backward(mp, items[0], enc, table)
        with pytest.raises(ValueError, match="read-only"):
            sgd_step(mp, grads, 0.1)
        with pytest.raises(ValueError, match="read-only"):
            mp.emb.weight[0, 0] = 1.0
        np.testing.assert_array_equal(mp.theta, before)

    def test_truncated_file(self, tiny_world, tmp_path):
        ckpt, *_ = self.bundle(tiny_world)
        path = tmp_path / "model.ooal"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    def test_trailing_bytes_refused(self, tiny_world, tmp_path):
        ckpt, *_ = self.bundle(tiny_world)
        path = tmp_path / "model.ooal"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(CorruptionError, match="^trailing bytes after payload$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate, error, match", [
        pytest.param(_without("config"), CorruptionError, "'config'", id="no-config"),
        pytest.param(_without("arrays"), CorruptionError, "'arrays'", id="no-arrays"),
        pytest.param(_without("affordances"), CorruptionError, "'affordances'",
                     id="no-affordances"),
        pytest.param(_first_array({"name": "ctx.vectors"}), CorruptionError, "'shape'",
                     id="no-shape"),
        pytest.param(_first_array({"name": "ctx.vectors", "shape": [-2, 16]}), CorruptionError,
                     "bad shape", id="negative-shape"),
        pytest.param(_first_array({"name": "ctx.vectors", "shape": [2.0, 16]}), CorruptionError,
                     "bad shape", id="float-shape"),
        pytest.param(_first_array({"name": "ctx.vectors", "shape": [True, 16]}), CorruptionError,
                     "bad shape", id="bool-shape"),
        pytest.param(_name_of(0, ["ctx.vectors"]), CorruptionError,
                     re.escape("checkpoint array 0 is (['ctx.vectors'], (2, 16)), "
                               "the model's is ('ctx.vectors', (2, 16))"), id="list-name"),
        pytest.param(_name_of(3, {"a": 1}), CorruptionError,
                     re.escape("checkpoint array 3 is ({'a': 1}, (2,)), "
                               "the model's is ('fusion.alpha_logits', (2,))"), id="object-name"),
        pytest.param(lambda d: {**d, "arrays": [{**e, "name": e["name"].replace("embedder.", "")}
                                                for e in d["arrays"]]},
                     CorruptionError, "embedder.weight", id="no-embedder-weight"),
        pytest.param(_config(momentum=0.9), FormatError, "momentum", id="unknown-key"),
        pytest.param(_config(lr="x"), FormatError, "lr", id="lr-string"),
        pytest.param(_config(C="16"), FormatError, "C must be int", id="C-string"),
        pytest.param(_config(lr=-1.0), FormatError, "lr must be positive", id="lr-negative"),
        pytest.param(_config(lr=float("nan")), FormatError, "lr must be positive and finite",
                     id="lr-nan"),
        pytest.param(_config(lr=10**400), FormatError, "lr must be positive and finite",
                     id="lr-int-past-float"),
        pytest.param(_config(C=0), FormatError, "C must be >= 1", id="C-zero"),
    ] + [
        # a config that asks for the claimed context, which the file does not hold
        pytest.param(lambda d, p=p: _config(p=p)(_shape_of("ctx.vectors", [p, 16])(d)),
                     CorruptionError, "payload shorter than expected", id=f"claims-2^{n}-values")
        for n, p in ((31, 2**27), (62, 2**58), (64, 2**60))
    ] + [
        pytest.param(lambda d: {**d, "version": 1}, FormatError,
                     "^unsupported checkpoint version 1$", id="version-1"),
        pytest.param(_config(gate=1), FormatError, "config gate must be bool", id="gate-int"),
        pytest.param(_config(p=True), FormatError, "config p must be int", id="p-bool"),
        pytest.param(lambda d: [d], FormatError, "version", id="not-an-object"),
        pytest.param(lambda d: {**d, "arrays": d["arrays"][:1] + d["arrays"][:-1]},
                     CorruptionError, re.escape("array 1 is ('ctx.vectors', (2, 16)), "
                                                "the model's is ('fusion.proj.0', (16, 16))"),
                     id="duplicate-name"),
        pytest.param(lambda d: {**d, "arrays": d["arrays"][:-1]
                                + [{**d["arrays"][-1], "name": "text_encoder.bias"}]},
                     CorruptionError, re.escape("array 14 is ('text_encoder.bias', (16, 16)), "
                                                "the model's is ('text_encoder.proj', (16, 16))"),
                     id="unexpected-name"),
        pytest.param(_config(p=2**40), CorruptionError,
                     re.escape("array 0 is ('ctx.vectors', (2, 16)), "
                               "the model's is ('ctx.vectors', (1099511627776, 16))"), id="p-2^40"),
        pytest.param(_config(t=10**6), CorruptionError,
                     re.escape("array 14 is ('text_encoder.proj', (16, 16)), "
                               "the model's is ('decoder.1.wq', (16, 16))"), id="t-10^6"),
        pytest.param(_shape_of("decoder.0.w1", [64, 16]), CorruptionError,
                     re.escape("array 10 is ('decoder.0.w1', (64, 16)), "
                               "the model's is ('decoder.0.w1', (16, 64))"),
                     id="transposed-array"),
    ] + [
        pytest.param(lambda d, a=a: {**d, "affordances": a}, FormatError,
                     r"model\.ooal: affordances must be", id=f"affordances-{i}")
        for i, a in (("numbers", [1, 2, 3, 4]), ("string", "gras"), ("empty", []),
                     ("duplicate", ["grasp", "cut", "grasp"]))
    ])
    def test_malformed_manifest_fails_with_one_error(self, tiny_world, tmp_path, mutate, error,
                                                     match):
        ckpt, *_ = self.bundle(tiny_world, iterations=0)
        path = tmp_path / "model.ooal"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[8:12])
        blob = json.dumps(mutate(json.loads(raw[12:12 + n]))).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])
        with pytest.raises(error, match=match):
            load_checkpoint(path)

    def test_oversized_config_fails_before_the_model_is_built(self, tiny_world, tmp_path,
                                                               monkeypatch):
        # a small file whose config says C = 20000 and whose embedder.weight is listed as
        # [1, 20000]: building that model would ask for 20000 x 20000 decoder matrices
        ckpt, *_ = self.bundle(tiny_world, iterations=0)
        path = tmp_path / "model.ooal"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[8:12])
        doc = json.loads(raw[12:12 + n])
        doc["config"]["C"] = 20000
        doc = _shape_of("embedder.weight", [1, 20000])(doc)
        blob = json.dumps(doc).encode()
        values = sum(math.prod(e["shape"]) for e in doc["arrays"])
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + bytes(8 * values))
        assert path.stat().st_size < 200_000
        calls = []
        monkeypatch.setattr(training, "ModelParams", lambda *args: calls.append(args))
        with pytest.raises(CorruptionError, match=re.escape("('fusion.proj.0', (16, 16))")):
            load_checkpoint(path)
        assert calls == []

    def test_nonfinite_payload_is_corruption(self, tiny_world, tmp_path):
        ckpt, *_ = self.bundle(tiny_world, iterations=0)
        path = tmp_path / "model.ooal"
        save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        # the last float64 belongs to text_encoder.proj
        raw[-8:] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="text_encoder.proj"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["ctx.vectors", "fusion.alpha_logits", "embedder.bias",
                                      "decoder.0.b2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_parameter_is_refused_by_name(self, tiny_world, tmp_path, name, value):
        ckpt, *_ = self.bundle(tiny_world, iterations=0)
        path = tmp_path / "model.ooal"
        save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        (n,) = struct.unpack("<I", raw[8:12])
        offset = 12 + n
        for entry in json.loads(raw[12:12 + n])["arrays"]:
            if entry["name"] == name:
                break
            offset += 8 * math.prod(entry["shape"])
        raw[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError,
                           match=f"^checkpoint array {re.escape(name)} has a non-finite value$"):
            load_checkpoint(path)


def test_config_json_roundtrip(tmp_path):
    cfg = TrainConfig(lr=0.02, iterations=7, seed=3, p=4, j=2, t=1, C=32, C_t=16, log_every=2)
    path = tmp_path / "cfg.json"
    from dataclasses import asdict

    path.write_text(json.dumps(asdict(cfg)))
    assert training.load_config(path) == cfg
    path.write_text(json.dumps({**asdict(cfg), "momentum": 0.9}))
    with pytest.raises(ValueError, match="momentum"):
        training.load_config(path)
    path.write_text(json.dumps({**asdict(cfg), "lr": "x"}))
    with pytest.raises(ValueError, match="lr"):
        training.load_config(path)
    # json reads NaN and Infinity as floats
    for key, value in (("C", 0), ("C_t", -2), ("lr", float("nan")), ("lr", float("inf")),
                       ("lr", 10**400), ("seed", -1)):
        path.write_text(json.dumps({**asdict(cfg), key: value}))
        with pytest.raises(ValueError, match=f"^{key} must be"):
            training.load_config(path)

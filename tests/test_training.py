"""Loss, gradients, SGD loop, determinism, and checkpointing."""

import json
import math
import struct

import numpy as np
import pytest

from affseg import gradcheck, synth, training
from affseg.container import CorruptionError, FormatError
from affseg.data import AffordanceTarget, LoadedItem
from affseg.decoder import Prediction
from affseg.features import FeatureStack
from affseg.training import (
    Checkpoint,
    TrainConfig,
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
from tests.oracles import max_rel_err


def pred_of(scores: np.ndarray) -> Prediction:
    H, W, N = scores.shape
    logits = np.zeros((1, N))
    return Prediction(logits=logits, upsampled=scores, grid=(1, 1))


class TestBceLoss:
    def test_perfect_prediction(self):
        y = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert bce_loss(pred_of(y), AffordanceTarget(M=y)) <= 1e-10

    def test_uniform_scores_give_ln2(self):
        y = (np.random.default_rng(0).random((3, 4, 2)) < 0.5).astype(float)
        s = np.full((3, 4, 2), 0.5)
        assert abs(bce_loss(pred_of(s), AffordanceTarget(M=y)) - math.log(2)) < 1e-9

    def test_hand_case(self):
        # oracle: mean(-ln .9, -ln .9, -ln .8, -ln .8) = 0.16425
        s = np.array([0.9, 0.1, 0.8, 0.2]).reshape(2, 2, 1)
        y = np.array([1.0, 0.0, 1.0, 0.0]).reshape(2, 2, 1)
        expected = -(math.log(0.9) + math.log(0.9) + math.log(0.8) + math.log(0.8)) / 4
        got = bce_loss(pred_of(s), AffordanceTarget(M=y))
        assert abs(got - 0.16425) < 1e-4
        assert abs(got - expected) < 1e-9

    def test_shape_mismatch(self):
        s = np.full((2, 2, 1), 0.5)
        y = np.zeros((2, 3, 1))
        with pytest.raises(ValueError):
            bce_loss(pred_of(s), AffordanceTarget(M=y))


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
        halves = {name: np.full_like(a, 0.5) for name, a in param_items(params)}
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
        # a bad gradient anywhere in the dict leaves every array unchanged
        params, *_ = gradcheck.build_problem(seed=1)
        before = [arr.copy() for _, arr in param_items(params)]
        names = [name for name, _ in param_items(params)]
        for name in (names[0], names[7], names[-1]):
            grads = {n: np.ones_like(a) for n, a in param_items(params)}
            grads[name] = np.zeros((1, 1))
            with pytest.raises(ValueError, match=name):
                sgd_step(params, grads, 0.1)
            for (_, a), b in zip(param_items(params), before):
                np.testing.assert_array_equal(a, b)

    def test_overflowing_step_names_parameter(self):
        params, *_ = gradcheck.build_problem(seed=1)
        grads = zero_gradients(params)
        params.emb.bias[0] = 1e308
        grads["embedder.bias"][0] = -1e308
        with pytest.raises(ArithmeticError, match="embedder.bias"):
            sgd_step(params, grads, 1.0)


class TestBackward:
    def test_duplicate_class_paths_get_identical_gradients(self):
        # with an all-zero shared context and duplicated class tokens (and
        # targets), the two class paths are indistinguishable: the gradient
        # rows reaching the text embeddings must be identical
        from affseg.decoder import decode_backward, predict_backward
        from affseg.features import ClassTokenTable
        from affseg.training import _bce_score_grad, forward

        params, enc, table, item = gradcheck.build_problem(seed=2, num_classes=2)
        params.ctx.vectors[:] = 0.0
        tokens = table.tokens.copy()
        tokens[1] = tokens[0]
        table = ClassTokenTable(names=("a", "b"), tokens=tokens)
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
        # parameter gradient vanishes (the sigmoid factor kills the chain)
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

    def test_unknown_ablation_rejected_before_training(self, tiny_world):
        cfg = TrainConfig(iterations=0, seed=8, p=2, j=2, t=1, C=16, C_t=16)
        with pytest.raises(ValueError, match="bogus"):
            train(cfg, make_items(tiny_world), tiny_world.affordances, ablate="bogus")

    def test_empty_trainset(self):
        cfg = TrainConfig(iterations=1)
        with pytest.raises(ValueError):
            train(cfg, [], ["grasp"])

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

    def test_frozen_components_unchanged(self, tiny_world):
        import hashlib

        items = make_items(tiny_world)
        cfg = TrainConfig(iterations=6, seed=9, p=2, j=2, t=1, C=16, C_t=16)
        table, enc = training.build_text_pipeline(cfg, tiny_world.affordances)
        enc_digest = hashlib.sha256(enc.proj.tobytes()).hexdigest()
        stack_digest = hashlib.sha256(items[0].stack.last.tobytes()).hexdigest()
        train(cfg, items, tiny_world.affordances)
        table2, enc2 = training.build_text_pipeline(cfg, tiny_world.affordances)
        assert hashlib.sha256(enc2.proj.tobytes()).hexdigest() == enc_digest
        np.testing.assert_array_equal(table.tokens, table2.tokens)
        regenerated = synth.synth_vision_encode(tiny_world, items[0].object_id, 0.05, variant=0)
        assert hashlib.sha256(regenerated.last.tobytes()).hexdigest() == stack_digest


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _first_array(entry):
    return lambda doc: {**doc, "arrays": [entry] + doc["arrays"][1:]}


def _config(**values):
    return lambda doc: {**doc, "config": {**doc["config"], **values}}


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

    def test_truncated_file(self, tiny_world, tmp_path):
        ckpt, *_ = self.bundle(tiny_world)
        path = tmp_path / "model.ooal"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CorruptionError):
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
        pytest.param(lambda d: {**d, "arrays": [{**e, "name": e["name"].replace("embedder.", "")}
                                                for e in d["arrays"]]},
                     CorruptionError, "embedder.weight", id="no-embedder-weight"),
        pytest.param(_config(momentum=0.9), FormatError, "momentum", id="unknown-key"),
        pytest.param(_config(lr="x"), FormatError, "lr", id="lr-string"),
        pytest.param(_config(C="16"), FormatError, "C must be int", id="C-string"),
        pytest.param(_config(lr=-1.0), FormatError, "lr must be positive", id="lr-negative"),
        pytest.param(lambda d: {**d, "ablate": "bogus"}, FormatError, "bogus", id="bad-ablation"),
        pytest.param(lambda d: [d], FormatError, "version", id="not-an-object"),
        pytest.param(lambda d: {**d, "arrays": d["arrays"][:1] + d["arrays"][:-1]},
                     CorruptionError, "ctx.vectors twice", id="duplicate-name"),
        pytest.param(lambda d: {**d, "arrays": d["arrays"][:-1]
                                + [{**d["arrays"][-1], "name": "text_encoder.bias"}]},
                     CorruptionError, "unexpected arrays", id="unexpected-name"),
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

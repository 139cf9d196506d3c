"""Layer fusion and the visual embedder."""

import numpy as np
import pytest

from affseg.features import FeatureStack
from affseg.fusion import (
    Embedder,
    FusionParams,
    embed_cached,
    embed_backward,
    embed_folded,
    fold_embedder,
    fuse_cached,
    fuse_backward,
)
from affseg.training import TrainConfig, init_model
from tests.oracles import central_difference, max_rel_err


def initial(j, C_v, C=1, seed=0) -> tuple[FusionParams, Embedder]:
    """The initial fusion and embedder of a model on j layers of width C_v."""
    mp = init_model(TrainConfig(seed=seed, p=0, j=j, t=0, C=C, C_t=1), C_v)
    return mp.fp, mp.emb


def stack_of(layers, grid=None):
    layers = [np.asarray(l, dtype=np.float64) for l in layers]
    L, dim = layers[0].shape
    grid = grid or (1, L)
    return FeatureStack(
        layers=tuple(layers), cls=np.zeros(dim), grid=grid, image_size=(4, 4)
    )


class TestFuse:
    def test_single_layer_identity_projection(self):
        rng = np.random.default_rng(0)
        last = rng.standard_normal((6, 4))
        stack = stack_of([rng.standard_normal((6, 4)), last])
        fp = FusionParams(proj=[np.eye(4)], alpha_logits=np.zeros(1))
        np.testing.assert_array_equal(fuse_cached(stack, fp)[0], last)

    def test_softmax_saturation_selects_last_layer(self):
        rng = np.random.default_rng(1)
        layers = [rng.standard_normal((5, 3)) for _ in range(3)]
        stack = stack_of(layers)
        fp, _ = initial(3, 3)
        fp.alpha_logits[...] = [30.0, -30.0, -30.0]
        expected = layers[-1] @ fp.proj[0]
        np.testing.assert_allclose(fuse_cached(stack, fp)[0], expected, atol=1e-9)

    def test_hand_computed_two_layer_case(self):
        # oracle: 2 patches, C_v = 2, hand-set projections and logits;
        # the oracle recomputes the weighted sum with explicit scalar math
        import math

        l1 = np.array([[1.0, 2.0], [3.0, -1.0]])   # last layer
        l0 = np.array([[0.5, 0.0], [1.0, 1.0]])    # second-to-last
        p1 = np.array([[1.0, 1.0], [0.0, 2.0]])    # applied to last
        p2 = np.array([[2.0, 0.0], [1.0, -1.0]])   # applied to second-to-last
        logits = np.array([0.3, -0.2])
        e = [math.exp(v) for v in (0.3, -0.2)]
        a = [v / sum(e) for v in e]
        expected = np.zeros((2, 2))
        for r in range(2):
            for c in range(2):
                t1 = sum(l1[r][k] * p1[k][c] for k in range(2))
                t2 = sum(l0[r][k] * p2[k][c] for k in range(2))
                expected[r, c] = a[0] * t1 + a[1] * t2
        stack = stack_of([l0, l1])
        fp = FusionParams(proj=[p1, p2], alpha_logits=logits)
        np.testing.assert_allclose(fuse_cached(stack, fp)[0], expected, atol=1e-12)

    def test_too_few_layers(self):
        stack = stack_of([np.zeros((4, 3))])
        with pytest.raises(ValueError):
            fuse_cached(stack, initial(2, 3)[0])

    def test_alpha_is_probability_vector(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            fp = FusionParams(
                proj=[np.eye(3)] * 4, alpha_logits=rng.standard_normal(4) * 10
            )
            a = fp.alpha
            assert abs(a.sum() - 1.0) < 1e-12
            assert (a > 0).all()

    def test_alpha_of_no_layers_is_empty(self):
        a = initial(0, 4)[0].alpha
        assert a.shape == (0,) and a.dtype == np.float64

    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_alpha_bitwise_equals_max_shifted_softmax(self, j):
        z = np.random.default_rng(j).standard_normal(j) * 30
        fp = FusionParams(proj=[np.eye(3)] * j, alpha_logits=z)
        e = np.exp(z - z.max())
        assert fp.alpha.tobytes() == (e / e.sum()).tobytes()

    def test_linear_in_features(self):
        rng = np.random.default_rng(3)
        layers = [rng.standard_normal((4, 3)) for _ in range(2)]
        fp, _ = initial(2, 3, seed=1)
        base = fuse_cached(stack_of(layers), fp)[0]
        scaled = fuse_cached(stack_of([2.5 * l for l in layers]), fp)[0]
        np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-12)


class TestEmbed:
    def test_identity(self):
        x = np.random.default_rng(0).standard_normal((5, 3))
        emb = Embedder(weight=np.eye(3), bias=np.zeros(3))
        np.testing.assert_array_equal(embed_cached(x, emb)[0], x)

    def test_constant_map(self):
        x = np.random.default_rng(0).standard_normal((5, 3))
        emb = Embedder(weight=np.zeros((3, 2)), bias=np.full(2, 7.5))
        np.testing.assert_array_equal(embed_cached(x, emb)[0], np.full((5, 2), 7.5))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            embed_cached(np.zeros((4, 3)), Embedder(weight=np.eye(2), bias=np.zeros(2)))


def fold_problem(C_v, C, L, j=3, depth=4, seed=0):
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(L))
    stack = stack_of([rng.standard_normal((L, C_v)) for _ in range(depth)], grid=(side, side))
    fp, emb = initial(j, C_v, C, seed)
    fp.alpha_logits[...] = rng.standard_normal(j)
    emb.bias[...] = rng.standard_normal(C)
    return stack, fp, emb


def error_message(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestFold:
    @pytest.mark.parametrize("C_v, C, L", [
        pytest.param(384, 64, 256, id="C_v-above-C"),
        pytest.param(32, 64, 64, id="C_v-below-C"),
    ])
    def test_matches_fuse_then_embed(self, C_v, C, L):
        stack, fp, emb = fold_problem(C_v, C, L)
        want = embed_cached(fuse_cached(stack, fp)[0], emb)[0]
        got = embed_folded(stack, fold_embedder(fp, emb))
        assert got.shape == want.shape == (L, C)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_bypassed_fusion_is_the_embedder_bitwise(self):
        # j = 0: no fusion parameters, the raw last layer, empty gradients
        stack, fp, emb = fold_problem(32, 64, 64, j=0)
        fused, cache = fuse_cached(stack, fp)
        assert fused is stack.last
        d_proj, d_logits = fuse_backward(cache, np.ones_like(fused))
        assert d_proj == [] and d_logits.shape == (0,)
        got = embed_folded(stack, fold_embedder(fp, emb))
        assert got.tobytes() == embed_cached(stack.last, emb)[0].tobytes()

    def test_repeated_calls_are_bitwise_equal(self):
        stack, fp, emb = fold_problem(32, 16, 16)
        first = embed_folded(stack, fold_embedder(fp, emb))
        assert first.tobytes() == embed_folded(stack, fold_embedder(fp, emb)).tobytes()

    def test_errors_match_the_cached_passes(self):
        stack, fp, emb = fold_problem(3, 4, 4, j=2, depth=2)
        short = stack_of([stack.last], grid=(2, 2))
        message = error_message(embed_folded, short, fold_embedder(fp, emb))
        assert "wants 2 layers" in message and message == error_message(fuse_cached, short, fp)
        wide = stack_of([np.zeros((4, 5))] * 2, grid=(2, 2))
        assert error_message(embed_folded, wide, fold_embedder(fp, emb)) == \
            error_message(fuse_cached, wide, fp)
        assert error_message(embed_folded, wide, fold_embedder(initial(0, 3)[0], emb)) == \
            error_message(embed_cached, wide.last, emb)


def test_gradients_match_finite_differences():
    # oracle: finite-difference oracle for proj, alpha_logits, weight, bias
    rng = np.random.default_rng(4)
    layers = [rng.standard_normal((4, 3)) for _ in range(2)]
    stack = stack_of(layers)
    fp, emb = initial(2, 3, C=4, seed=5)
    fp.alpha_logits[...] = rng.standard_normal(2)
    probe = rng.standard_normal((4, 4))

    def loss():
        return float((embed_cached(fuse_cached(stack, fp)[0], emb)[0] * probe).sum())

    arrays = [fp.proj[0], fp.proj[1], fp.alpha_logits, emb.weight, emb.bias]
    fd = central_difference(loss, arrays)

    fused, fcache = fuse_cached(stack, fp)
    _, ecache = embed_cached(fused, emb)
    d_w, d_b, d_fused = embed_backward(ecache, probe)
    d_proj, d_logits = fuse_backward(fcache, d_fused)

    for analytic, numeric in zip([*d_proj, d_logits, d_w, d_b], fd):
        assert max_rel_err(analytic, numeric) < 1e-4
